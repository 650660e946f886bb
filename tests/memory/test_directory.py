"""Unit tests for the one coherence directory: its entry and its map.

The shared L2 controller and the home-node backend both keep a
:class:`Directory`; the backends' own tests check how they drive it.
"""

from repro.memory import Directory, DirectoryEntry
from repro.memory.coherence import MSIState


class TestDirectoryEntry:
    def test_starts_idle(self):
        entry = DirectoryEntry()
        assert entry.state == MSIState.INVALID
        assert entry.owner() is None
        assert not entry.sharers
        assert entry.is_idle()

    def test_not_idle_with_owner_or_sharers(self):
        entry = DirectoryEntry()
        entry.state = MSIState.MODIFIED
        entry.add(2)
        assert entry.owner() == 2
        assert not entry.is_idle()
        entry.drop(2)
        entry.state = MSIState.SHARED
        entry.add(1)
        assert entry.owner() is None
        assert not entry.is_idle()

    def test_owner_requires_modified_and_a_single_bit(self):
        entry = DirectoryEntry()
        assert entry.owner() is None
        entry.add(3)
        assert entry.owner() is None  # still INVALID-stated
        entry.state = MSIState.MODIFIED
        assert entry.owner() == 3
        entry.add(5)
        assert entry.owner() is None  # two bits: not a valid owner

    def test_drop_demotes_to_invalid_when_empty(self):
        entry = DirectoryEntry()
        entry.state = MSIState.SHARED
        entry.add(1)
        entry.add(2)
        entry.drop(1)
        assert entry.state == MSIState.SHARED
        entry.drop(2)
        assert entry.state == MSIState.INVALID
        assert entry.is_idle()

    def test_holders_ascend(self):
        entry = DirectoryEntry()
        for core in (6, 0, 3):
            entry.add(core)
        assert list(entry.holders()) == [0, 3, 6]
        assert all(entry.holds(core) for core in (0, 3, 6))
        assert not entry.holds(1)


class TestDirectory:
    def test_entry_materialized_on_demand(self):
        directory = Directory()
        assert directory.peek(7) is None
        entry = directory.entry(7)
        assert directory.peek(7) is entry
        assert len(directory) == 1

    def test_entry_is_stable(self):
        directory = Directory()
        assert directory.entry(3) is directory.entry(3)

    def test_drop_if_idle(self):
        directory = Directory()
        assert directory.peek(5) is None
        entry = directory.entry(5)
        entry.state = MSIState.SHARED
        entry.add(0)
        entry.add(1)
        directory.drop(5, 0)
        assert directory.peek(5) is entry  # core 1 still holds it
        assert len(directory) == 1
        directory.drop(5, 1)
        assert directory.peek(5) is None and len(directory) == 0
        assert entry.state == MSIState.INVALID

    def test_drop_missing_is_noop(self):
        directory = Directory()
        directory.drop(99, 0)
        assert len(directory) == 0

    def test_forget_reaps_whatever_is_recorded(self):
        directory = Directory()
        entry = directory.entry(4)
        entry.state = MSIState.MODIFIED
        entry.add(2)
        directory.forget(4)
        assert directory.peek(4) is None and len(directory) == 0
        directory.forget(4)  # a missing line is a no-op
