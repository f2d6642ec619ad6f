"""One merge rule for the baseline accumulators.

A frequency oracle's count table or per-user store and a Fast-AGMS
counter matrix are linear aggregates of their reports, so shards that
share the published configuration merge exactly.  A class declares
``MERGEABLE`` (each state attribute and its
:class:`~repro.distributed.PartialAggregate` op: ``"sum"`` for an array
added element-wise, ``"concat"`` for a per-user store kept as a list of
arrays) and :meth:`~MergeableState.published` (the configuration two
shards must share).  :class:`MergeableState` derives from those the
partial, the restore, the fingerprint and ``merge``: the published maps
are gated, then the two partials merge through
:meth:`PartialAggregate.merge` and the result is restored.
"""

from __future__ import annotations

from typing import Any, ClassVar, Dict

import numpy as np

from .errors import IncompatibleSketchError, require_merge_compatible

__all__ = ["MergeableState"]


def _jsonable(value: Any) -> Any:
    """Published state as JSON-compatible data (the digest's input)."""
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return np.asarray(value).tolist()


class MergeableState:
    """Partial form, fingerprint and merge of a linear accumulator."""

    #: Mergeable state: attribute name -> ``"sum"`` or ``"concat"``.  The
    #: partial names each array after its attribute, leading ``_`` dropped.
    MERGEABLE: ClassVar[Dict[str, str]] = {}

    def published(self) -> Dict[str, Any]:
        """Configuration every shard must share, in validation order."""
        raise NotImplementedError

    def _counters(self) -> Dict[str, float]:
        """The additive counters that travel with the arrays."""
        raise NotImplementedError

    def _restored(self, counters: Dict[str, float]) -> None:
        """Adopt a restored partial's counters; drop state derived from the old arrays."""
        raise NotImplementedError

    def fingerprint(self) -> Dict[str, Any]:
        """:meth:`published`, with arrays and hash families digested."""
        from .distributed.partial import fingerprint_digest

        fingerprint: Dict[str, Any] = {}
        for name, value in self.published().items():
            if isinstance(value, (np.ndarray, list, tuple)) or hasattr(value, "to_dict"):
                fingerprint[f"{name} digest"] = fingerprint_digest(_jsonable(value))
            else:
                fingerprint[name] = value
        return fingerprint

    def to_partial(self):
        """This accumulator's state as a :class:`~repro.distributed.PartialAggregate`.

        A snapshot: the arrays are copies, so later collection never
        mutates a partial already handed out.
        """
        from .distributed.partial import PartialAggregate

        partial = PartialAggregate(
            type(self).__name__, self.fingerprint(), counters=self._counters()
        )
        for attr, op in self.MERGEABLE.items():
            value = getattr(self, attr)
            if op == "concat":
                value = np.concatenate(value) if value else np.zeros(0, dtype=np.int64)
            else:
                value = value.copy()
            partial.add_array(attr.lstrip("_"), value, op=op)
        return partial

    def restore(self, partial) -> "MergeableState":
        """Replace this accumulator's state with a copy of ``partial``'s.

        ``partial`` must carry this accumulator's fingerprint: its arrays
        were collected under the same published configuration.
        """
        if partial.fingerprint != self.fingerprint():
            raise IncompatibleSketchError(
                f"cannot restore {type(self).__name__} from a partial "
                f"collected under another configuration"
            )
        for attr, op in self.MERGEABLE.items():
            array = partial.arrays[attr.lstrip("_")].copy()
            setattr(self, attr, [array] if op == "concat" else array)
        self._restored(partial.counters)
        return self

    def merge(self, other: "MergeableState") -> "MergeableState":
        """Fold another shard's state into this one. Returns self.

        Raises :class:`IncompatibleSketchError` on a type or published
        configuration mismatch, before any state is touched.
        """
        if type(other) is not type(self):
            raise IncompatibleSketchError(
                f"cannot merge {type(self).__name__} with {type(other).__name__}"
            )
        theirs = other.published()
        require_merge_compatible(
            f"{type(self).__name__} shards",
            **{name: (mine, theirs[name]) for name, mine in self.published().items()},
        )
        return self.restore(self.to_partial().merge(other.to_partial()))
