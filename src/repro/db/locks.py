"""Transaction lock manager with deadlock detection.

The engines lock leaf pages for the duration of a transaction (writer
locks held to commit — the mechanism behind the paper's Table 3 write
convoys).  Real engines must also *detect deadlocks*: InnoDB builds a
waits-for graph and aborts a victim; well-written TPC-C clients avoid
cycles by sorted acquisition, but the engine cannot rely on that.

``LockManager`` grants exclusive locks FIFO per key, maintains the
waits-for graph, and raises :class:`DeadlockError` in the requester that
would close a cycle (the youngest-waiter-dies policy a la InnoDB).
"""

from collections import deque


class DeadlockError(Exception):
    """Granting this lock would create a waits-for cycle."""

    def __init__(self, waiter, holder, key):
        super().__init__("deadlock: txn %r waiting on %r held via %r"
                         % (waiter, holder, key))
        self.waiter = waiter
        self.holder = holder
        self.key = key


class _LockState:
    __slots__ = ("owner", "waiters")

    def __init__(self):
        self.owner = None
        self.waiters = deque()  # (txn_id, event)


class LockManager:
    """Exclusive per-key locks with waits-for-graph deadlock detection."""

    def __init__(self, sim):
        self.sim = sim
        self._locks = {}
        # txn_id -> {key: None} in acquisition order.  An insertion-
        # ordered dict, not a set: release_all iterates it, and lock
        # keys contain strings, so set order would vary with the
        # process's hash seed — a replayed run must release (and
        # therefore re-grant) in identical order.
        self._held = {}
        self._waiting_on = {}  # txn_id -> key it is blocked on
        self.counters = {"acquires": 0, "waits": 0, "deadlocks": 0}

    # --- introspection -----------------------------------------------------
    def owner_of(self, key):
        state = self._locks.get(key)
        return state.owner if state else None

    def held_by(self, txn_id):
        return set(self._held.get(txn_id, ()))

    def is_waiting(self, txn_id):
        return txn_id in self._waiting_on

    # --- acquisition ---------------------------------------------------------
    def acquire(self, txn_id, key):
        """Generator: returns once ``txn_id`` holds ``key``.

        Raises :class:`DeadlockError` (without enqueuing) when waiting
        would close a cycle in the waits-for graph.
        """
        state = self._locks.get(key)
        if state is None:
            state = _LockState()
            self._locks[key] = state
        if state.owner == txn_id:
            return  # re-entrant
        if state.owner is None and not state.waiters:
            self._grant(state, txn_id, key)
            return
        # would wait: check for a cycle owner -> ... -> txn_id
        blocker = state.owner
        if self._reaches(blocker, txn_id):
            self.counters["deadlocks"] += 1
            raise DeadlockError(txn_id, blocker, key)
        event = self.sim.event()
        state.waiters.append((txn_id, event))
        self._waiting_on[txn_id] = key
        self.counters["waits"] += 1
        try:
            with self.sim.telemetry.span("lock.wait", "db",
                                         key=str(key)):
                yield event
        finally:
            self._waiting_on.pop(txn_id, None)

    def _grant(self, state, txn_id, key):
        state.owner = txn_id
        self._held.setdefault(txn_id, {})[key] = None
        self.counters["acquires"] += 1

    def _reaches(self, start, target):
        """True if ``target`` is reachable from ``start`` in waits-for."""
        seen = set()
        current = start
        while current is not None and current not in seen:
            if current == target:
                return True
            seen.add(current)
            next_key = self._waiting_on.get(current)
            if next_key is None:
                return False
            state = self._locks.get(next_key)
            current = state.owner if state else None
        return False

    # --- release --------------------------------------------------------------
    def release(self, txn_id, key):
        state = self._locks.get(key)
        if state is None or state.owner != txn_id:
            raise ValueError("txn %r does not hold %r" % (txn_id, key))
        self._held.get(txn_id, {}).pop(key, None)
        while state.waiters:
            next_txn, event = state.waiters.popleft()
            state.owner = None
            self._grant(state, next_txn, key)
            self._waiting_on.pop(next_txn, None)
            event.succeed()
            return
        # Free and unwanted: drop the entry, or the table keeps one
        # state for every key ever locked.
        del self._locks[key]

    def release_all(self, txn_id):
        """Release everything a (committing or aborting) txn holds, and
        withdraw any pending wait it has queued."""
        for key in list(self._held.get(txn_id, ())):
            self.release(txn_id, key)
        self._held.pop(txn_id, None)
        pending_key = self._waiting_on.pop(txn_id, None)
        if pending_key is not None:
            state = self._locks.get(pending_key)
            if state is not None:
                state.waiters = deque(
                    (waiting_txn, event)
                    for waiting_txn, event in state.waiters
                    if waiting_txn != txn_id)
