"""The mergeable wire format shards ship to the merge tree.

A :class:`PartialAggregate` is the *pre-finalisation* state of one shard
aggregator: raw integer accumulators (pre-FWHT sketch counters, oracle
count tables, per-user report stores) plus additive accounting.  Because
every array is a linear aggregate, merging two partials is a pure
element-wise add (or an order-preserving concatenation for per-user
stores) — no floats, no transforms, no randomness — which is what
makes the merge tree associative and byte-exact.

Safety comes from the **fingerprint**: a JSON-compatible dict pinning
everything two shards must share for their sum to estimate anything —
method, sketch shape ``(k, m)``, privacy budget ``epsilon``, and a
digest of the published randomness (hash pairs / hash pools).  Merging
validates fingerprints through the same
:func:`repro.errors.require_merge_compatible` gate every in-memory merge
path uses, so a partial built under the wrong seed, the wrong width or
the wrong budget is refused instead of silently corrupting the estimate.

Serialisation reuses :mod:`repro.serialization`'s base64 raw-bytes array
codec, so a partial round-trips through plain JSON (files, queues, RPC)
with no per-element Python work; :func:`PartialAggregate.from_dict`
restores the exact dtypes recorded at save time, keeping
save → load → merge byte-identical to the in-memory merge.

The fingerprint pins *parameters*; payload *bytes* are pinned separately
by a crc32 content checksum (wire format version 2): a bit-flipped or
truncated array payload is rejected on load with
:class:`~repro.errors.PartialIntegrityError` instead of silently
corrupting the merge tree.  Version-1 payloads (no checksum) still load.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Sequence

import numpy as np

from ..errors import (
    IncompatibleSketchError,
    ParameterError,
    PartialIntegrityError,
    require_merge_compatible,
)
from ..serialization import decode_array, encode_array

if TYPE_CHECKING:
    from ..hashing import HashPairs

__all__ = [
    "PartialAggregate",
    "fingerprint_digest",
    "pairs_digest",
    "content_checksum",
    "PARTIAL_FORMAT",
    "PARTIAL_VERSION",
]

#: Payload marker + version of the wire format.
PARTIAL_FORMAT = "repro/partial-aggregate"
PARTIAL_VERSION = 2

#: How an array merges: element-wise integer/float add, or order-preserving
#: concatenation along axis 0 (per-user stores such as OLH's report lists).
_ARRAY_OPS = ("sum", "concat")


def fingerprint_digest(payload: Any) -> str:
    """Stable short digest of JSON-compatible published state.

    Used to pin hash pairs / hash pools inside a fingerprint without
    shipping the (large) coefficient arrays twice: shards built from the
    same published randomness produce the same digest, any other seed
    produces a different one.
    """
    return _digest(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def pairs_digest(pairs: Sequence["HashPairs"]) -> str:
    """``fingerprint_digest([p.to_dict() for p in pairs])``, from cached text.

    The canonical JSON of a list is its items' canonical JSON joined
    by commas inside brackets, so each pair's cached
    :meth:`~repro.hashing.HashPairs.canonical_json` gives the same
    bytes without serialising a coefficient again.
    """
    return _digest("[" + ",".join(p.canonical_json() for p in pairs) + "]")


def _digest(canonical: str) -> str:
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()[:32]


def content_checksum(arrays_payload: Mapping[str, Mapping[str, Any]]) -> int:
    """crc32 over the serialized array entries of a partial payload.

    Folds every array entry — name, merge op, dtype, packed base64 data —
    into a single crc32 via its canonical JSON (sorted keys, fixed
    separators), in sorted name order.  Stored as ``checksum`` in wire
    version 2 and verified on load: any bit flip or truncation inside the
    array payload changes the crc and is rejected with a typed error.
    """
    crc = 0
    for name in sorted(arrays_payload):
        canonical = json.dumps(
            {"name": name, **arrays_payload[name]},
            sort_keys=True,
            separators=(",", ":"),
        )
        crc = zlib.crc32(canonical.encode("utf-8"), crc)
    return crc & 0xFFFFFFFF


class PartialAggregate:
    """One shard's mergeable state: fingerprinted arrays + counters.

    Parameters
    ----------
    method:
        The collection protocol this partial belongs to (e.g.
        ``"join-session"``, ``"krr"``); partials of different methods
        never merge.
    fingerprint:
        JSON-compatible dict of everything shards must share (shape,
        budget, published-randomness digests).  Compared key-by-key on
        merge through :func:`repro.errors.require_merge_compatible`.
    arrays:
        Named accumulator arrays.  ``ops[name]`` selects the merge rule
        (``"sum"`` default, ``"concat"`` for per-user stores).  Arrays
        missing from one side are adopted from the other (a shard that
        never saw stream ``B`` simply contributes nothing to it).
    counters:
        Additive scalars (report counts, uplink bits, cohort counts,
        offline seconds); summed key-wise on merge.
    meta:
        Non-merged annotations (stream schema, shard ids).  ``charges``
        is special-cased: lists under it are concatenated on merge so
        privacy-ledger entries survive the tree.
    """

    __slots__ = ("method", "fingerprint", "arrays", "ops", "counters", "meta")

    def __init__(
        self,
        method: str,
        fingerprint: Mapping[str, Any],
        arrays: Optional[Mapping[str, np.ndarray]] = None,
        *,
        ops: Optional[Mapping[str, str]] = None,
        counters: Optional[Mapping[str, float]] = None,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.method = str(method)
        self.fingerprint = dict(fingerprint)
        self.arrays: Dict[str, np.ndarray] = {
            name: np.asarray(arr) for name, arr in dict(arrays or {}).items()
        }
        self.ops: Dict[str, str] = {name: "sum" for name in self.arrays}
        for name, op in dict(ops or {}).items():
            if op not in _ARRAY_OPS:
                raise ParameterError(
                    f"array op must be one of {_ARRAY_OPS}, got {op!r} for {name!r}"
                )
            self.ops[name] = op
        self.counters: Dict[str, float] = {
            key: float(value) for key, value in dict(counters or {}).items()
        }
        self.meta: Dict[str, Any] = dict(meta or {})

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def add_array(self, name: str, array: np.ndarray, *, op: str = "sum") -> None:
        """Register one accumulator array (``op`` selects the merge rule)."""
        if op not in _ARRAY_OPS:
            raise ParameterError(f"array op must be one of {_ARRAY_OPS}, got {op!r}")
        self.arrays[name] = np.asarray(array)
        self.ops[name] = op

    def copy(self) -> "PartialAggregate":
        """A deep copy (merging mutates the left operand in place)."""
        clone = PartialAggregate(
            self.method,
            dict(self.fingerprint),
            {name: arr.copy() for name, arr in self.arrays.items()},
            ops=dict(self.ops),
            counters=dict(self.counters),
            meta=json.loads(json.dumps(self._json_meta())),
        )
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartialAggregate):
            return NotImplemented
        return (
            self.method == other.method
            and self.fingerprint == other.fingerprint
            and set(self.arrays) == set(other.arrays)
            and all(
                self.arrays[n].dtype == other.arrays[n].dtype
                and np.array_equal(self.arrays[n], other.arrays[n])
                for n in self.arrays
            )
            and self.ops == other.ops
            and self.counters == other.counters
            and self._json_meta() == other._json_meta()
        )

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def check_mergeable(self, other: "PartialAggregate") -> None:
        """Raise :class:`~repro.errors.IncompatibleSketchError` on mismatch.

        Validates the method, every fingerprint field — wrong seed
        (digest), wrong ``m``, wrong ``epsilon`` and friends — every
        shared array's op, dtype and shape, and every meta annotation
        both sides carry: all before :meth:`merge` touches any state.
        """
        if not isinstance(other, PartialAggregate):
            raise IncompatibleSketchError(
                f"cannot merge PartialAggregate with {type(other).__name__}"
            )
        fields: Dict[str, Any] = {
            "method": (self.method, other.method),
            "fingerprint fields": (
                sorted(self.fingerprint),
                sorted(other.fingerprint),
            ),
        }
        for key in self.fingerprint:
            if key in other.fingerprint:
                fields[key] = (self.fingerprint[key], other.fingerprint[key])
        require_merge_compatible(f"{self.method} partials", **fields)
        # sorted() pins the validation order: which mismatch raises first
        # must not depend on set iteration order (RPR105).
        for name in sorted(set(self.arrays) & set(other.arrays)):
            mine, theirs = self.arrays[name], other.arrays[name]
            if self.ops[name] != other.ops.get(name, "sum"):
                raise IncompatibleSketchError(
                    f"cannot merge {self.method} partials: array {name!r} "
                    f"declares different merge ops"
                )
            if mine.dtype != theirs.dtype:
                raise IncompatibleSketchError(
                    f"cannot merge {self.method} partials: array {name!r} dtype "
                    f"mismatch ({mine.dtype} vs {theirs.dtype})"
                )
            if self.ops[name] == "sum" and mine.shape != theirs.shape:
                raise IncompatibleSketchError(
                    f"cannot merge {self.method} partials: array {name!r} shaped "
                    f"{mine.shape} vs {theirs.shape}"
                )
        for key, value in other.meta.items():
            mine = self.meta.get(key)
            if key == "charges" or mine is None:
                continue
            if isinstance(mine, dict) and isinstance(value, dict):
                # Schema maps (e.g. the session's per-stream descriptors)
                # union: a shard that never saw stream B still merges with
                # one that did.  Conflicting descriptors for the same
                # entry are refused — summed arrays would be garbage.
                for sub_key, sub_value in value.items():
                    if sub_key in mine and mine[sub_key] != sub_value:
                        raise IncompatibleSketchError(
                            f"cannot merge {self.method} partials: meta "
                            f"{key}[{sub_key!r}] disagrees "
                            f"({mine[sub_key]!r} vs {sub_value!r})"
                        )
            elif mine != value:
                # Scalar annotations must agree too: silently keeping one
                # side would let e.g. partials of two different protocol
                # rounds fuse into a valid-looking aggregate.
                raise IncompatibleSketchError(
                    f"cannot merge {self.method} partials: meta {key!r} "
                    f"disagrees ({mine!r} vs {value!r})"
                )

    def merge(self, other: "PartialAggregate") -> "PartialAggregate":
        """Fold ``other`` into this partial (in place). Returns self.

        Pure adds / concatenations on the raw accumulators — exact for
        integer arrays, order-preserving for per-user stores — so any
        merge topology over the same partials produces byte-identical
        state.  :meth:`check_mergeable` validates everything first, so a
        refused merge leaves this partial untouched.
        """
        self.check_mergeable(other)
        for name, theirs in other.arrays.items():
            mine = self.arrays.get(name)
            if mine is None:
                self.arrays[name] = theirs.copy()
                self.ops[name] = other.ops.get(name, "sum")
            elif self.ops[name] == "concat":
                self.arrays[name] = np.concatenate([mine, theirs])
            else:
                self.arrays[name] = mine + theirs
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0.0) + value
        mine_charges = self.meta.setdefault("charges", [])
        for charge in other.meta.get("charges", []):
            mine_charges.append(list(charge))
        if not mine_charges:
            del self.meta["charges"]
        for key, value in other.meta.items():
            if key == "charges":
                continue
            mine = self.meta.get(key)
            if mine is None:
                # Adopt by deep copy, never by reference: later merges
                # mutate the adopted structure in place, and the donor
                # partial (which a caller may still flush or re-merge)
                # must not see those edits.  Meta is JSON-compatible by
                # contract, so the JSON round-trip is a faithful copy.
                self.meta[key] = json.loads(json.dumps(value))
            elif isinstance(mine, dict):
                for sub_key, sub_value in value.items():
                    mine.setdefault(sub_key, sub_value)
        return self

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def _json_meta(self) -> Dict[str, Any]:
        return json.loads(json.dumps(self.meta))

    def to_dict(self) -> dict:
        """JSON-compatible payload (arrays as base64 raw bytes).

        Each array entry records its exact dtype alongside the (possibly
        integer-narrowed) packed payload, so :meth:`from_dict` restores
        bit-identical accumulators.  ``checksum`` is the crc32 of the
        array entries (:func:`content_checksum`), verified on load.
        """
        arrays_payload = {
            name: {
                "op": self.ops[name],
                "dtype": str(arr.dtype),
                "data": encode_array(arr),
            }
            for name, arr in self.arrays.items()
        }
        return {
            "format": PARTIAL_FORMAT,
            "version": PARTIAL_VERSION,
            "method": self.method,
            "fingerprint": dict(self.fingerprint),
            "arrays": arrays_payload,
            "checksum": content_checksum(arrays_payload),
            "counters": dict(self.counters),
            "meta": self._json_meta(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PartialAggregate":
        """Rebuild a partial serialised by :meth:`to_dict`."""
        if not isinstance(payload, dict):
            raise ParameterError(
                f"not a partial-aggregate payload (a {type(payload).__name__})"
            )
        if payload.get("format") != PARTIAL_FORMAT:
            raise ParameterError(
                f"not a partial-aggregate payload (format={payload.get('format')!r})"
            )
        version = payload.get("version")
        if not isinstance(version, int) or version != PARTIAL_VERSION:
            raise ParameterError(
                f"unsupported partial-aggregate version {version!r} "
                f"(this build reads version {PARTIAL_VERSION})"
            )
        # Every shape check raises the typed error: a payload read from a
        # file or a socket must never surface as KeyError/TypeError.
        arrays_payload = payload.get("arrays", {})
        if not isinstance(arrays_payload, dict) or not all(
            isinstance(entry, dict) for entry in arrays_payload.values()
        ):
            raise PartialIntegrityError(
                "partial-aggregate arrays must map names to array entries"
            )
        method = payload.get("method")
        if not isinstance(method, str):
            raise PartialIntegrityError(
                f"partial-aggregate method must be a string, got {method!r}"
            )
        for key in ("fingerprint", "counters", "meta"):
            if not isinstance(payload.get(key, {}), dict):
                raise PartialIntegrityError(
                    f"partial-aggregate {key} must be an object, "
                    f"got {type(payload[key]).__name__}"
                )
        recorded = payload.get("checksum")
        actual = content_checksum(arrays_payload)
        if recorded != actual:
            raise PartialIntegrityError(
                f"partial-aggregate payload failed its content checksum "
                f"(recorded {recorded!r}, computed {actual}): "
                f"bit flip or truncation in the array data"
            )
        arrays: Dict[str, np.ndarray] = {}
        ops: Dict[str, str] = {}
        for name, entry in arrays_payload.items():
            try:
                arrays[name] = decode_array(entry["data"], np.dtype(entry["dtype"]))
            except (KeyError, TypeError, ValueError) as error:
                # decode_array rejects byte-count mismatches (a body
                # whose crc was recomputed after truncation); numpy
                # rejects an unknown dtype name.
                raise PartialIntegrityError(
                    f"partial-aggregate array {name!r} failed to decode: {error}"
                ) from error
            ops[name] = entry.get("op", "sum")
        try:
            return cls(
                method,
                payload.get("fingerprint", {}),
                arrays,
                ops=ops,
                counters=payload.get("counters", {}),
                meta=payload.get("meta", {}),
            )
        except (TypeError, ValueError) as error:
            # A counter that is not a number, or an unknown merge op.
            raise PartialIntegrityError(
                f"malformed partial-aggregate payload: {error}"
            ) from error

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PartialAggregate(method={self.method!r}, "
            f"arrays={sorted(self.arrays)}, "
            f"num_reports={self.counters.get('num_reports', 0):g})"
        )
