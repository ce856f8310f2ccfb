"""Transactional updates to the integration blackboard (Section 5.2).

*"First, it provides transactional updates to the IB."*  And from the
case study: *"The workbench launches the Harmony GUI and begins an IB
transaction...  she exits Harmony to complete the IB transaction."*

Implementation: an undo log captured from the triple store's mutation
listener.  Commit discards the log and releases deferred events; rollback
replays the log in reverse and discards the deferred events.  Transactions
nest (savepoint semantics): an inner rollback undoes only the inner
window.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..core.errors import TransactionError
from ..rdf.store import TripleStore
from ..rdf.triple import Triple
from .events import EventBus

#: one store mutation's changes, as its batch listeners receive them
_Batch = Sequence[Tuple[bool, Triple]]


class Transaction:
    """One open transaction window over a store (+ optional event bus).

    The undo log holds the store's change batches as they arrive — one
    list per mutation call, the list the store hands its batch
    listeners, not one entry per triple — and is dropped when the window
    commits or rolls back, so a finished transaction keeps no triple
    alive.  :attr:`change_count` still reports the window's size.
    """

    def __init__(self, store: TripleStore, bus: Optional[EventBus] = None) -> None:
        self._store = store
        self._bus = bus
        self._log: List[_Batch] = []
        self._changes = 0
        self._unsubscribe: Optional[Callable[[], None]] = None
        self._state = "open"
        # batch subscription: a bulk schema load inside the window costs
        # one callback, not one per triple
        self._unsubscribe = store.subscribe_batch(self._record_batch)
        if bus is not None:
            bus.defer()

    def _record_batch(self, changes: _Batch) -> None:
        self._log.append(changes)
        self._changes += len(changes)

    @property
    def is_open(self) -> bool:
        return self._state == "open"

    @property
    def change_count(self) -> int:
        """Triple-level changes made inside the window so far."""
        return self._changes

    def commit(self) -> int:
        """Make the changes permanent and deliver deferred events.
        Returns the number of triple-level changes committed."""
        self._finish("committed")
        if self._bus is not None:
            self._bus.release(discard=False)
        return self._changes

    def rollback(self) -> int:
        """Undo every change made inside this window and discard its
        deferred events.  Returns the number of changes undone."""
        log = self._finish("rolled-back")
        # replay in reverse without re-recording; consecutive same-kind
        # changes undo as one bulk mutation
        run: List[Triple] = []
        run_added: Optional[bool] = None

        def flush() -> None:
            if not run:
                return
            if run_added:
                self._store.remove_many(run)
            else:
                self._store.add_many(run)
            run.clear()

        for batch in reversed(log):
            for added, triple in reversed(batch):
                if run_added is not None and added != run_added:
                    flush()
                run_added = added
                run.append(triple)
        flush()
        if self._bus is not None:
            self._bus.release(discard=True)
        return self._changes

    def _finish(self, state: str) -> List[_Batch]:
        """Close the window; returns the undo log, which it stops holding."""
        if self._state != "open":
            raise TransactionError(f"transaction already {self._state}")
        self._state = state
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        log, self._log = self._log, []
        return log

    # -- context-manager sugar: commit on success, rollback on exception -----

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self.is_open:
            return False
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        return False
