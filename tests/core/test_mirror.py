"""Mirror materialization copies every ring column of the vocal."""

from repro.core.mirror import materialize
from tests.core.helpers import build

LOOP = """
    movi r1, 40
loop:
    addi r1, r1, -1
    bne r1, r0, loop
    halt
"""


def test_materialize_copies_every_ring_column():
    system = build([LOOP])
    vocal, mute = system.pairs[0].vocal, system.pairs[0].mute
    # Every ring column the core allocated, found without FLAT_COLUMNS.
    names = sorted(name for name in vars(vocal) if name.startswith("f_"))
    assert {"f_seq", "f_chk", "f_deps"} <= set(names)
    columns = {name: getattr(mute, name) for name in names}
    for number, name in enumerate(names):
        column = getattr(vocal, name)
        assert len(column) == vocal._f_cap
        for slot in range(len(column)):
            value = (number, slot)
            if isinstance(column[slot], list):
                column[slot][:] = [value]  # per-slot lists are reused
            else:
                column[slot] = value

    materialize(vocal, mute)

    for name in names:
        assert getattr(mute, name) == getattr(vocal, name), name
        # In place: the hot loop's hoisted bundle aliases the lists.
        assert getattr(mute, name) is columns[name], name
