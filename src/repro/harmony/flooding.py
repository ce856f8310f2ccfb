"""Similarity flooding: classic (Melnik et al., ICDE 2002) and Harmony's
directional variant.

Section 4: *"A version of similarity flooding adjusts the confidence
scores based on structural information.  Positive confidence scores
propagate up the schema graph (e.g., from attributes to entities), and
negative confidence scores trickle down the schema graph.  Intuitively,
two attributes are unlikely to match if their parent entities do not
match."*

Two algorithms live here, each in two executions:

* :func:`classic_flooding` — the original fixpoint computation over the
  pairwise connectivity graph, on [0,1] similarities.  Used standalone by
  the SF-only baseline and available to the engine (bench A2 compares it
  against the directional variant).
* :func:`directional_flooding` — Harmony's asymmetric propagation over
  the containment hierarchy, on [-1,+1] confidences.
* :class:`CompiledPCG` / :class:`FloodingState` — the compiled fast path
  behind ``EngineConfig.compiled_flooding``: PCG pairs interned to
  contiguous int ids, edges stored as parallel ``array('l')`` index
  arrays with ``array('d')`` propagation coefficients, and the fixpoint
  run as index-gather/scatter sweeps over preallocated score buffers.
  The compiled classic sweep reproduces :func:`classic_flooding`
  bit-for-bit (same accumulation order); :func:`FloodingState.ensure`
  keys the compiled structure on a (graph names, revisions, active-set)
  epoch and, after a schema evolution, patches only the PCG edges
  incident to the evolved elements instead of recompiling.
* :class:`SweepBackend` and its three implementations — the sweep loops
  themselves are pluggable (``EngineConfig.sweep_backend``).
  :class:`PythonSweepBackend` is the pure-Python gather/scatter loop
  (bit-identical to the reference, zero dependencies);
  :class:`NumpySweepBackend` consumes the same ``array`` buffers
  zero-copy via ``np.frombuffer`` and runs each sweep as one
  ``np.bincount`` scatter plus vectorized normalization and residual.
  ``bincount`` accumulates in edge order — the order the arrays were
  flattened in — so the NumPy sweep reproduces the Python backend's
  float arithmetic operation for operation (differentially tested to
  1e-12; bit-identical in practice).  :class:`CSweepBackend` hands the
  same buffers to the compiled cores in ``_csweep.c`` (the optional
  setuptools extension, or a runtime cffi build of the same source) —
  plain C replicas of the reference loops, statement for statement, so
  they too are bit-identical.  :func:`resolve_sweep_backend` maps the
  ``"auto" | "python" | "numpy" | "c"`` selector to a backend, probing
  c → numpy → python on ``"auto"`` and degrading silently — the
  accelerators stay optional extras, never hard dependencies.
* :func:`directional_flooding_compiled` — the same up/down propagation
  over int-indexed parent/child arrays, bit-identical to the reference,
  routed through :meth:`SweepBackend.sweep_directional`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.correspondence import clamp_confidence
from ..core.elements import ElementKind
from ..core.graph import CONTAINMENT_LABELS, SchemaGraph

Pair = Tuple[str, str]


# -- classic similarity flooding ------------------------------------------------

@dataclass
class FloodingConfig:
    """Fixpoint parameters for classic similarity flooding."""

    max_iterations: int = 50
    epsilon: float = 1e-4


def _sparse_frontier(
    src_by_label: Mapping[str, List[Tuple[str, str]]],
    tgt_by_label: Mapping[str, List[Tuple[str, str]]],
    active: Set[Pair],
) -> Set[Pair]:
    """The active pairs plus their one-hop PCG neighborhood."""
    src_out: Dict[str, Dict[str, List[str]]] = {}
    src_in: Dict[str, Dict[str, List[str]]] = {}
    tgt_out: Dict[str, Dict[str, List[str]]] = {}
    tgt_in: Dict[str, Dict[str, List[str]]] = {}
    for label, edges in src_by_label.items():
        for subject, obj in edges:
            src_out.setdefault(label, {}).setdefault(subject, []).append(obj)
            src_in.setdefault(label, {}).setdefault(obj, []).append(subject)
    for label, edges in tgt_by_label.items():
        for subject, obj in edges:
            tgt_out.setdefault(label, {}).setdefault(subject, []).append(obj)
            tgt_in.setdefault(label, {}).setdefault(obj, []).append(subject)

    allowed = set(active)
    for a, b in active:
        for label in src_out:
            for a2 in src_out[label].get(a, ()):
                for b2 in tgt_out.get(label, {}).get(b, ()):
                    allowed.add((a2, b2))
        for label in src_in:
            for a2 in src_in[label].get(a, ()):
                for b2 in tgt_in.get(label, {}).get(b, ()):
                    allowed.add((a2, b2))
    return allowed


def _pcg_edges(
    source: SchemaGraph,
    target: SchemaGraph,
    restrict_to: Optional[Set[Pair]] = None,
) -> Dict[Pair, List[Pair]]:
    """The pairwise connectivity graph.

    PCG node (a, b) has an l-labeled edge to (a', b') whenever
    ``a --l--> a'`` in the source and ``b --l--> b'`` in the target.
    Returns, for every PCG node, its *neighbors with propagation
    coefficients folded in* — i.e. each out-edge already carries weight
    1/fanout(label) per Melnik's inverse-average scheme, and edges are
    symmetrized (flooding runs on the induced undirected graph).

    Edges are bucketed by label so the construction is
    Σ_l |E_s(l)|·|E_t(l)| rather than |E_s|·|E_t|.  When *restrict_to*
    is given, the PCG is additionally restricted to those pairs plus
    their one-hop neighborhood — the sparse-flooding mode: scores only
    ever flow between a scored pair and its structural neighbors, so the
    vast dark region of the full cross-product is never materialized.
    """
    src_by_label = _edges_by_label(source)
    tgt_by_label = _edges_by_label(target)

    allowed: Optional[Set[Pair]] = None
    if restrict_to is not None:
        allowed = _sparse_frontier(src_by_label, tgt_by_label, set(restrict_to))

    out_by_label = _build_out_by_label(src_by_label, tgt_by_label, allowed)
    return _weighted_adjacency(out_by_label)


def _edges_by_label(graph: SchemaGraph) -> Dict[str, List[Tuple[str, str]]]:
    """(subject, object) tuples bucketed by edge label, in the graph's
    deterministic sorted-edge order."""
    by_label: Dict[str, List[Tuple[str, str]]] = {}
    for edge in graph.edges:
        by_label.setdefault(edge.label, []).append((edge.subject, edge.object))
    return by_label


def _build_out_by_label(
    src_by_label: Mapping[str, List[Tuple[str, str]]],
    tgt_by_label: Mapping[str, List[Tuple[str, str]]],
    allowed: Optional[Set[Pair]],
) -> Dict[Pair, Dict[str, List[Pair]]]:
    """Raw label-bucketed PCG out-edges (before weighting)."""
    out_by_label: Dict[Pair, Dict[str, List[Pair]]] = {}
    for label, s_edges in src_by_label.items():
        t_edges = tgt_by_label.get(label)
        if not t_edges:
            continue
        for s_subject, s_object in s_edges:
            for t_subject, t_object in t_edges:
                node = (s_subject, t_subject)
                successor = (s_object, t_object)
                if allowed is not None and (
                    node not in allowed or successor not in allowed
                ):
                    continue
                out_by_label.setdefault(node, {}).setdefault(label, []).append(successor)
    return out_by_label


def _weighted_adjacency(
    out_by_label: Mapping[Pair, Dict[str, List[Pair]]],
) -> Dict[Pair, List[Tuple[Pair, float]]]:
    """Fold inverse-average propagation coefficients into a symmetrized
    adjacency, exactly as Melnik's scheme prescribes."""
    weighted: Dict[Pair, List[Tuple[Pair, float]]] = {}
    for node, by_label in out_by_label.items():
        for label, successors in by_label.items():
            weight = 1.0 / len(successors)
            for successor in successors:
                weighted.setdefault(node, []).append((successor, weight))
                # reverse edge, coefficient computed from reverse fanout below

    # reverse edges need their own fanout normalization
    in_by_label: Dict[Pair, Dict[str, List[Pair]]] = {}
    for node, by_label in out_by_label.items():
        for label, successors in by_label.items():
            for successor in successors:
                in_by_label.setdefault(successor, {}).setdefault(label, []).append(node)
    for node, by_label in in_by_label.items():
        for label, predecessors in by_label.items():
            weight = 1.0 / len(predecessors)
            for predecessor in predecessors:
                weighted.setdefault(node, []).append((predecessor, weight))

    # collapse to plain adjacency with summed weights
    adjacency: Dict[Pair, List[Tuple[Pair, float]]] = {}
    for node, entries in weighted.items():
        summed: Dict[Pair, float] = {}
        for neighbor, weight in entries:
            summed[neighbor] = summed.get(neighbor, 0.0) + weight
        adjacency[node] = sorted(summed.items())
    return adjacency


def classic_flooding(
    source: SchemaGraph,
    target: SchemaGraph,
    initial: Mapping[Pair, float],
    config: Optional[FloodingConfig] = None,
    restrict_to: Optional[Set[Pair]] = None,
) -> Dict[Pair, float]:
    """Melnik's basic fixpoint: σ⁺ = normalize(σ⁰ + σ + φ(σ)).

    *initial* maps (source element id, target element id) → similarity in
    [0, 1].  The result is normalized so the best pair scores 1.0.

    When *restrict_to* is given (usually the scored candidate pairs),
    the propagation graph is built sparsely over those pairs and their
    one-hop neighborhood instead of the full edge cross-product — an
    approximation (fanout weights are computed within the restricted
    graph) that the engine keeps behind its ``sparse_flooding`` flag.
    """
    config = config or FloodingConfig()
    adjacency = _pcg_edges(source, target, restrict_to=restrict_to)
    nodes = set(initial) | set(adjacency)
    for neighbors in adjacency.values():
        nodes.update(n for n, _ in neighbors)

    sigma0 = {node: max(0.0, float(initial.get(node, 0.0))) for node in nodes}
    sigma = dict(sigma0)
    for _ in range(config.max_iterations):
        incoming: Dict[Pair, float] = {node: 0.0 for node in nodes}
        for node, neighbors in adjacency.items():
            value = sigma[node]
            if value == 0.0:
                continue
            for neighbor, weight in neighbors:
                incoming[neighbor] += value * weight
        updated = {
            node: sigma0[node] + sigma[node] + incoming[node] for node in nodes
        }
        peak = max(updated.values(), default=0.0)
        if peak > 0.0:
            updated = {node: value / peak for node, value in updated.items()}
        residual = max(
            (abs(updated[node] - sigma[node]) for node in nodes), default=0.0
        )
        sigma = updated
        if residual < config.epsilon:
            break
    return sigma


# -- compiled fixpoint (flat edge arrays) --------------------------------------


class CompiledPCG:
    """The pairwise connectivity graph compiled to flat edge arrays.

    PCG pairs are interned to contiguous int ids; edges live in parallel
    ``array('l')`` src/dst index arrays with an ``array('d')`` coefficient
    array, flattened from the reference adjacency *in its exact iteration
    order* — so the compiled sweep accumulates floating-point
    contributions in the same order as :func:`classic_flooding` and the
    cold fixpoint is bit-identical to the reference.

    The label-bucketed ``out_by_label`` intermediate is retained so
    :func:`patch_pcg` can splice edges incident to evolved elements in
    and out without rebuilding the cross-product; coefficients are
    re-derived from list lengths at flatten time, keeping weights
    consistent by construction.
    """

    __slots__ = (
        "nodes", "node_index", "edge_src", "edge_dst", "edge_weight",
        "out_by_label", "allowed", "_edge_iter", "_buffers", "_np_edges",
    )

    def __init__(
        self,
        out_by_label: Dict[Pair, Dict[str, List[Pair]]],
        allowed: Optional[Set[Pair]],
    ) -> None:
        self.out_by_label = out_by_label
        self.allowed = allowed
        self.nodes: List[Pair] = []
        self.node_index: Dict[Pair, int] = {}
        self.edge_src = array("l")
        self.edge_dst = array("l")
        self.edge_weight = array("d")
        self._edge_iter: Optional[List[Tuple[int, int, float]]] = None
        self._buffers: Optional[Tuple[List[float], ...]] = None
        #: zero-copy NumPy views over the edge arrays, built on demand by
        #: :class:`NumpySweepBackend` and dropped whenever the arrays are
        #: reflattened
        self._np_edges: Optional[Tuple] = None
        self._flatten()

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edge_src)

    def _flatten(self) -> None:
        adjacency = _weighted_adjacency(self.out_by_label)
        nodes: List[Pair] = []
        index: Dict[Pair, int] = {}
        src = array("l")
        dst = array("l")
        wts = array("d")
        for node, neighbors in adjacency.items():
            i = index.get(node)
            if i is None:
                i = index[node] = len(nodes)
                nodes.append(node)
            for neighbor, weight in neighbors:
                j = index.get(neighbor)
                if j is None:
                    j = index[neighbor] = len(nodes)
                    nodes.append(neighbor)
                src.append(i)
                dst.append(j)
                wts.append(weight)
        self.nodes = nodes
        self.node_index = index
        self.edge_src = src
        self.edge_dst = dst
        self.edge_weight = wts
        self._edge_iter = None
        self._buffers = None
        self._np_edges = None

    def _edges(self) -> List[Tuple[int, int, float]]:
        edges = self._edge_iter
        if edges is None:
            edges = self._edge_iter = list(
                zip(self.edge_src, self.edge_dst, self.edge_weight)
            )
        return edges

    def run(
        self,
        initial: Mapping[Pair, float],
        config: Optional[FloodingConfig] = None,
        backend: Optional["SweepBackend"] = None,
    ) -> Dict[Pair, float]:
        """The classic fixpoint as index-gather/scatter sweeps.

        Same σ⁺ = normalize(σ⁰ + σ + φ(σ)) recurrence, same accumulation
        order, same normalization and residual arithmetic as
        :func:`classic_flooding` — bit-identical by construction on the
        default Python backend.  *backend* selects which
        :class:`SweepBackend` iterates the fixpoint over the edge arrays.
        """
        config = config or FloodingConfig()
        index = self.node_index
        structural_n = len(self.nodes)
        # initial pairs outside the structural PCG carry their score
        # through normalization untouched by propagation; intern them
        # past the structural block without polluting the compiled index
        extra: Dict[Pair, int] = {}
        for pair in initial:
            if pair not in index and pair not in extra:
                extra[pair] = structural_n + len(extra)
        n = structural_n + len(extra)

        entries: List[Tuple[int, float]] = []
        for pair, value in initial.items():
            value = float(value)
            i = index.get(pair)
            if i is None:
                i = extra[pair]
            entries.append((i, value if value > 0.0 else 0.0))

        if backend is None:
            backend = PYTHON_SWEEP_BACKEND
        _note_sweep_run("classic", backend.name)
        sigma = backend.sweep_classic(self, entries, n, config)

        result = {pair: sigma[i] for pair, i in index.items()}
        for pair, i in extra.items():
            result[pair] = sigma[i]
        return result


#: valid ``EngineConfig.sweep_backend`` / :func:`resolve_sweep_backend`
#: selectors
SWEEP_BACKENDS = ("auto", "python", "numpy", "c")

#: concrete backend names, in ``"auto"``'s preference order
_SWEEP_BACKEND_NAMES = ("c", "numpy", "python")

#: process-wide per-backend sweep-run counters — which backend actually
#: executed each compiled fixpoint; surfaced via
#: :meth:`HarmonyEngine.fastpath_stats` and asserted in perf_smoke.py
_SWEEP_RUN_STATS: Dict[str, int] = {
    f"sweep_{kind}_runs_{name}": 0
    for kind in ("classic", "directional")
    for name in _SWEEP_BACKEND_NAMES
}


def sweep_run_stats() -> Dict[str, int]:
    """A snapshot of the per-backend compiled-sweep run counters."""
    return dict(_SWEEP_RUN_STATS)


def reset_sweep_run_stats() -> None:
    for key in _SWEEP_RUN_STATS:
        _SWEEP_RUN_STATS[key] = 0


def _note_sweep_run(kind: str, name: str) -> None:
    key = f"sweep_{kind}_runs_{name}"
    if key in _SWEEP_RUN_STATS:
        _SWEEP_RUN_STATS[key] += 1


class SweepBackend:
    """Strategy seam for the compiled flooding fixpoints.

    :meth:`sweep_classic` receives the compiled PCG, the dense
    ``(index, value)`` initial-score entries, the total node count
    (structural + extra interned pairs) and the :class:`FloodingConfig`;
    it returns the final σ vector indexable by node id.  Backends must
    preserve the reference recurrence σ⁺ = normalize(σ⁰ + σ + φ(σ)),
    the max-normalization and the max-abs-delta residual.

    :meth:`sweep_directional` receives the flattened directional
    structure built by :func:`directional_flooding_compiled` — the
    ``array('d')`` score vector, parent ids with a CSR-style
    indptr/children pair, the (child, parent) down-sweep arrays and a
    pinned byte mask — and returns the final score vector.  The base
    implementation here is the pure-Python reference loop; accelerated
    backends may override it.

    The differential suite in ``tests/harmony/test_sweep_backends.py``
    holds every backend to ≤1e-12 agreement on both fixpoints.
    """

    name = "abstract"

    def sweep_classic(
        self,
        compiled: CompiledPCG,
        entries: List[Tuple[int, float]],
        n: int,
        config: FloodingConfig,
    ) -> Sequence[float]:
        raise NotImplementedError

    #: backwards-compatible alias (the seam predates the directional port)
    def sweep(
        self,
        compiled: CompiledPCG,
        entries: List[Tuple[int, float]],
        n: int,
        config: FloodingConfig,
    ) -> Sequence[float]:
        return self.sweep_classic(compiled, entries, n, config)

    def sweep_directional(
        self,
        current: array,
        up_parents: array,
        up_indptr: array,
        up_children: array,
        down_child: array,
        down_parent: array,
        pinned: bytearray,
        config: "DirectionalConfig",
    ) -> Sequence[float]:
        up_rate = config.up_rate
        down_rate = config.down_rate
        n_up = len(up_parents)
        n_down = len(down_child)
        for _ in range(config.iterations):
            updated = array("d", current)
            for slot in range(n_up):
                j = up_parents[slot]
                if pinned[j]:
                    continue
                total = 0.0
                count = 0
                for k in range(up_indptr[slot], up_indptr[slot + 1]):
                    value = current[up_children[k]]
                    if value > 0.0:
                        total += value
                        count += 1
                if count:
                    boost = up_rate * (total / count)
                    updated[j] = clamp_confidence(min(0.99, current[j] + boost))
            for e in range(n_down):
                child = down_child[e]
                if pinned[child]:
                    continue
                parent_score = current[down_parent[e]]
                if parent_score < 0.0:
                    updated[child] = clamp_confidence(
                        max(-0.99, updated[child] + down_rate * parent_score)
                    )
            current = updated
        return current


class PythonSweepBackend(SweepBackend):
    """The pure-Python gather/scatter loop (reference-bit-identical).

    Reuses ``CompiledPCG``'s preallocated score buffers across runs and
    accumulates in flattened edge order, so it is bit-identical to
    :func:`classic_flooding` on a cold compile.
    """

    name = "python"

    def sweep_classic(
        self,
        compiled: CompiledPCG,
        entries: List[Tuple[int, float]],
        n: int,
        config: FloodingConfig,
    ) -> Sequence[float]:
        buffers = compiled._buffers
        if buffers is None or len(buffers[0]) != n:
            buffers = tuple([0.0] * n for _ in range(4))
            compiled._buffers = buffers
        sigma0, sigma, incoming, updated = buffers

        for i in range(n):
            sigma0[i] = 0.0
        for i, value in entries:
            sigma0[i] = value
        sigma[:] = sigma0

        edges = compiled._edges()
        epsilon = config.epsilon
        for _ in range(config.max_iterations):
            for i in range(n):
                incoming[i] = 0.0
            for s, d, w in edges:
                value = sigma[s]
                if value != 0.0:
                    incoming[d] += value * w
            peak = 0.0
            for i in range(n):
                value = sigma0[i] + sigma[i] + incoming[i]
                updated[i] = value
                if value > peak:
                    peak = value
            residual = 0.0
            if peak > 0.0:
                for i in range(n):
                    value = updated[i] / peak
                    updated[i] = value
                    delta = value - sigma[i]
                    if delta < 0.0:
                        delta = -delta
                    if delta > residual:
                        residual = delta
            else:
                for i in range(n):
                    delta = updated[i] - sigma[i]
                    if delta < 0.0:
                        delta = -delta
                    if delta > residual:
                        residual = delta
            sigma, updated = updated, sigma
            if residual < epsilon:
                break
        # buffers were swapped in place; record the final assignment
        compiled._buffers = (sigma0, sigma, incoming, updated)
        return sigma


def _probe_numpy():
    """Import numpy if available, else ``None`` (never raises)."""
    try:
        import numpy
    except Exception:
        return None
    return numpy


class NumpySweepBackend(SweepBackend):
    """Vectorized sweeps over zero-copy views of the edge arrays.

    ``np.frombuffer`` wraps ``CompiledPCG``'s ``array('l')``/``array('d')``
    buffers without copying (views are cached on the compiled PCG and
    dropped whenever it reflattens); each sweep is one
    ``np.bincount(dst, weights=sigma[src] * w)`` scatter — which
    accumulates in input (edge) order, matching the Python loop's
    float-accumulation order — plus vectorized normalization and
    max-abs-delta residual.
    """

    name = "numpy"

    def __init__(self, module=None) -> None:
        self._np = module if module is not None else _probe_numpy()
        if self._np is None:
            raise ImportError(
                "sweep_backend='numpy' requires NumPy, which is not "
                "importable; install it with `pip install .[fast]` (or "
                "`pip install numpy`), or use sweep_backend='auto' to fall "
                "back to the pure-python sweep silently"
            )

    def _edge_views(self, compiled: CompiledPCG):
        np = self._np
        views = compiled._np_edges
        if views is None:
            src = np.frombuffer(
                compiled.edge_src, dtype=np.dtype(f"i{compiled.edge_src.itemsize}")
            )
            dst = np.frombuffer(
                compiled.edge_dst, dtype=np.dtype(f"i{compiled.edge_dst.itemsize}")
            )
            wts = np.frombuffer(compiled.edge_weight, dtype=np.float64)
            views = compiled._np_edges = (src, dst, wts)
        return views

    def sweep_classic(
        self,
        compiled: CompiledPCG,
        entries: List[Tuple[int, float]],
        n: int,
        config: FloodingConfig,
    ) -> Sequence[float]:
        np = self._np
        if n == 0:
            return []
        if compiled.edge_count:
            src, dst, wts = self._edge_views(compiled)
        else:
            src = dst = wts = None
        sigma0 = np.zeros(n)
        for i, value in entries:
            sigma0[i] = value
        sigma = sigma0.copy()
        epsilon = config.epsilon
        for _ in range(config.max_iterations):
            if src is not None:
                incoming = np.bincount(dst, weights=sigma[src] * wts, minlength=n)
            else:
                incoming = np.zeros(n)
            updated = sigma0 + sigma + incoming
            peak = updated.max()
            if peak > 0.0:
                updated /= peak
            residual = np.abs(updated - sigma).max()
            sigma = updated
            if residual < epsilon:
                break
        return sigma.tolist()


def _probe_csweep():
    """Import the compiled ``_csweep`` extension if built, else ``None``
    (never raises)."""
    try:
        from . import _csweep
    except Exception:
        return None
    return _csweep


#: memoized result of the one-time cffi build attempt — compiling is far
#: too expensive to retry per resolve call
_CFFI_CSWEEP = None
_CFFI_CSWEEP_PROBED = False


class _CffiSweepModule:
    """Adapter giving a cffi build of ``_csweep.c`` the same two-function
    surface as the compiled CPython extension."""

    def __init__(self, ffi, lib) -> None:
        self._ffi = ffi
        self._lib = lib

    def sweep_classic(self, src, dst, wts, sigma, max_iterations, epsilon):
        ffi = self._ffi
        status = self._lib.csweep_classic(
            len(src),
            ffi.from_buffer("long[]", src),
            ffi.from_buffer("long[]", dst),
            ffi.from_buffer("double[]", wts),
            len(sigma),
            max_iterations,
            epsilon,
            ffi.from_buffer("double[]", sigma, require_writable=True),
        )
        if status != 0:
            raise MemoryError("csweep_classic allocation failed")

    def sweep_directional(
        self, current, up_parents, up_indptr, up_children,
        down_child, down_parent, pinned, up_rate, down_rate, iterations,
    ):
        ffi = self._ffi
        status = self._lib.csweep_directional(
            len(current),
            ffi.from_buffer("double[]", current, require_writable=True),
            len(up_parents),
            ffi.from_buffer("long[]", up_parents),
            ffi.from_buffer("long[]", up_indptr),
            ffi.from_buffer("long[]", up_children),
            len(down_child),
            ffi.from_buffer("long[]", down_child),
            ffi.from_buffer("long[]", down_parent),
            ffi.from_buffer("unsigned char[]", pinned),
            up_rate,
            down_rate,
            iterations,
        )
        if status != 0:
            raise MemoryError("csweep_directional allocation failed")


def _cffi_csweep():
    """Compile the ``_csweep.c`` cores with cffi at runtime.

    The fallback when the prebuilt extension is absent but cffi and a C
    compiler are available.  The build lands in a per-interpreter temp
    directory and the (possibly failed) outcome is memoized for the
    process.  Returns an adapter with the extension's two-function
    surface, or ``None``; never raises.
    """
    global _CFFI_CSWEEP, _CFFI_CSWEEP_PROBED
    if _CFFI_CSWEEP_PROBED:
        return _CFFI_CSWEEP
    _CFFI_CSWEEP_PROBED = True
    try:
        import importlib.util
        import os
        import sys
        import tempfile

        import cffi

        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "_csweep.c")) as handle:
            source = handle.read()
        ffi = cffi.FFI()
        ffi.cdef(
            """
            int csweep_classic(long n_edges, const long *src, const long *dst,
                               const double *wts, long n, long max_iterations,
                               double epsilon, double *sigma);
            int csweep_directional(long n, double *current, long n_up,
                                   const long *up_parents,
                                   const long *up_indptr,
                                   const long *up_children, long n_down,
                                   const long *down_child,
                                   const long *down_parent,
                                   const unsigned char *pinned,
                                   double up_rate, double down_rate,
                                   long iterations);
            """
        )
        tag = "iw_csweep_cffi_py{}{}".format(*sys.version_info[:2])
        ffi.set_source(tag, "#define CSWEEP_NO_PYTHON\n" + source)
        tmpdir = os.path.join(tempfile.gettempdir(), tag)
        os.makedirs(tmpdir, exist_ok=True)
        lib_path = ffi.compile(tmpdir=tmpdir)
        spec = importlib.util.spec_from_file_location(tag, lib_path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        _CFFI_CSWEEP = _CffiSweepModule(module.ffi, module.lib)
    except Exception:
        _CFFI_CSWEEP = None
    return _CFFI_CSWEEP


class CSweepBackend(SweepBackend):
    """Compiled-C sweeps over the same flat ``array`` buffers.

    Both fixpoints run in ``_csweep.c``'s cores — line-for-line replicas
    of the pure-Python reference loops (same edge-order accumulation,
    normalization, residual and clamp arithmetic, no ``-ffast-math``) —
    so results are bit-identical, not merely within tolerance.  The
    binding is either the prebuilt ``repro.harmony._csweep`` extension
    or a runtime cffi compile of the same source file.
    """

    name = "c"

    def __init__(self, module=None) -> None:
        if module is None:
            module = _probe_csweep()
            if module is None:
                module = _cffi_csweep()
        if module is None:
            raise ImportError(
                "sweep_backend='c' requires the compiled _csweep extension, "
                "which is not importable; build it with `python setup.py "
                "build_ext --inplace` or `pip install .` (both need a C "
                "compiler — alternatively `pip install .[fast]` provides "
                "cffi for a runtime build), or use sweep_backend='auto' to "
                "fall back silently"
            )
        self._mod = module

    def sweep_classic(
        self,
        compiled: CompiledPCG,
        entries: List[Tuple[int, float]],
        n: int,
        config: FloodingConfig,
    ) -> Sequence[float]:
        sigma = array("d", bytes(8 * n))
        for i, value in entries:
            sigma[i] = value
        if n:
            self._mod.sweep_classic(
                compiled.edge_src, compiled.edge_dst, compiled.edge_weight,
                sigma, config.max_iterations, config.epsilon,
            )
        return sigma

    def sweep_directional(
        self,
        current: array,
        up_parents: array,
        up_indptr: array,
        up_children: array,
        down_child: array,
        down_parent: array,
        pinned: bytearray,
        config: "DirectionalConfig",
    ) -> Sequence[float]:
        if len(current):
            self._mod.sweep_directional(
                current, up_parents, up_indptr, up_children,
                down_child, down_parent, pinned,
                config.up_rate, config.down_rate, config.iterations,
            )
        return current


#: process-wide singleton for the default backend — stateless, so safe
#: to share across engines and threads
PYTHON_SWEEP_BACKEND = PythonSweepBackend()


def resolve_sweep_backend(selector: str = "python") -> SweepBackend:
    """Map an ``EngineConfig.sweep_backend`` selector to a backend.

    ``"python"`` returns the shared pure-Python backend.  ``"numpy"``
    and ``"c"`` require their accelerator and raise an actionable
    :class:`ImportError` naming the install remedy when it is missing.
    ``"auto"`` probes c → numpy → python and silently falls back (the
    package keeps zero hard dependencies): the C backend is preferred
    when its prebuilt extension is importable, NumPy next, and the
    pure-python loop always works.
    """
    if selector == "python":
        return PYTHON_SWEEP_BACKEND
    if selector == "numpy":
        return NumpySweepBackend()
    if selector == "c":
        return CSweepBackend()
    if selector == "auto":
        csweep = _probe_csweep()
        if csweep is not None:
            return CSweepBackend(csweep)
        module = _probe_numpy()
        if module is not None:
            return NumpySweepBackend(module)
        return PYTHON_SWEEP_BACKEND
    raise ValueError(
        f"unknown sweep backend {selector!r}; expected one of {SWEEP_BACKENDS}"
    )


def compile_pcg(
    source: SchemaGraph,
    target: SchemaGraph,
    restrict_to: Optional[Set[Pair]] = None,
) -> CompiledPCG:
    """Build a :class:`CompiledPCG` for the pair of schemas.

    Construction goes through the same label-bucketed helpers as the
    reference :func:`_pcg_edges`, so the flattened edge order mirrors the
    reference adjacency's iteration order exactly.
    """
    src_by_label = _edges_by_label(source)
    tgt_by_label = _edges_by_label(target)
    allowed: Optional[Set[Pair]] = None
    if restrict_to is not None:
        allowed = _sparse_frontier(src_by_label, tgt_by_label, set(restrict_to))
    out_by_label = _build_out_by_label(src_by_label, tgt_by_label, allowed)
    return CompiledPCG(out_by_label, allowed)


def patch_pcg(
    compiled: CompiledPCG,
    source: SchemaGraph,
    target: SchemaGraph,
    restrict_to: Optional[Set[Pair]],
    dirty_source: Set[str],
    dirty_target: Set[str],
) -> CompiledPCG:
    """Splice evolved elements' edges into an existing compiled PCG.

    *dirty_source* / *dirty_target* are the element ids whose incident
    edge sets may have changed (endpoints of added/removed edges plus
    added/removed elements).  A PCG pair is *dirty* when either component
    is a dirty element or its sparse-frontier membership flipped; all
    edges touching dirty pairs are dropped, then rebuilt from the new
    schemas — cost Σ_l |ΔE_s(l)|·|E_t(l)| + |E_t-side Δ| instead of the
    full cross-product.  Coefficients are re-derived at flatten time, so
    the patched structure equals a fresh compile up to edge-array order
    (asserted structurally by the differential suite; score drift is
    bounded by float reassociation, ≤1e-12 in the harness).
    """
    src_by_label = _edges_by_label(source)
    tgt_by_label = _edges_by_label(target)
    new_allowed: Optional[Set[Pair]] = None
    if restrict_to is not None:
        new_allowed = _sparse_frontier(src_by_label, tgt_by_label, set(restrict_to))
    old_allowed = compiled.allowed
    delta: Set[Pair] = set()
    if new_allowed is not None and old_allowed is not None:
        delta = old_allowed ^ new_allowed

    def pair_dirty(pair: Pair) -> bool:
        return pair[0] in dirty_source or pair[1] in dirty_target or pair in delta

    out_by_label = compiled.out_by_label
    # drop everything touching a dirty pair
    for node in list(out_by_label):
        if pair_dirty(node):
            del out_by_label[node]
            continue
        by_label = out_by_label[node]
        for label in list(by_label):
            successors = by_label[label]
            kept = [p for p in successors if not pair_dirty(p)]
            if len(kept) != len(successors):
                if kept:
                    by_label[label] = kept
                else:
                    del by_label[label]
        if not by_label:
            del out_by_label[node]

    added_guard: Set[Tuple[Pair, str, Pair]] = set()

    def add(node: Pair, label: str, successor: Pair) -> None:
        if new_allowed is not None and (
            node not in new_allowed or successor not in new_allowed
        ):
            return
        key = (node, label, successor)
        if key in added_guard:
            return
        added_guard.add(key)
        out_by_label.setdefault(node, {}).setdefault(label, []).append(successor)

    # 1) combos built from an edge incident to a dirty element — every such
    #    combo has a dirty pair endpoint, so it was dropped above
    for label, s_edges in src_by_label.items():
        t_edges = tgt_by_label.get(label)
        if not t_edges:
            continue
        s_dirty = [
            e for e in s_edges if e[0] in dirty_source or e[1] in dirty_source
        ]
        t_dirty = [
            e for e in t_edges if e[0] in dirty_target or e[1] in dirty_target
        ]
        for s_subject, s_object in s_dirty:
            for t_subject, t_object in t_edges:
                add((s_subject, t_subject), label, (s_object, t_object))
        if t_dirty:
            for s_subject, s_object in s_edges:
                for t_subject, t_object in t_dirty:
                    add((s_subject, t_subject), label, (s_object, t_object))

    # 2) pairs whose sparse-frontier membership flipped without any dirty
    #    element: give newly-allowed pairs their out- and in-edges
    if delta:
        src_out: Dict[str, Dict[str, List[str]]] = {}
        src_in: Dict[str, Dict[str, List[str]]] = {}
        tgt_out: Dict[str, Dict[str, List[str]]] = {}
        tgt_in: Dict[str, Dict[str, List[str]]] = {}
        for label, edges in src_by_label.items():
            for subject, obj in edges:
                src_out.setdefault(label, {}).setdefault(subject, []).append(obj)
                src_in.setdefault(label, {}).setdefault(obj, []).append(subject)
        for label, edges in tgt_by_label.items():
            for subject, obj in edges:
                tgt_out.setdefault(label, {}).setdefault(subject, []).append(obj)
                tgt_in.setdefault(label, {}).setdefault(obj, []).append(subject)
        assert new_allowed is not None
        for pair in delta:
            if pair not in new_allowed:
                continue  # left the frontier: removal already handled it
            a, b = pair
            for label in src_out:
                for a2 in src_out[label].get(a, ()):
                    for b2 in tgt_out.get(label, {}).get(b, ()):
                        add(pair, label, (a2, b2))
            for label in src_in:
                for a0 in src_in[label].get(a, ()):
                    for b0 in tgt_in.get(label, {}).get(b, ()):
                        add((a0, b0), label, pair)

    compiled.allowed = new_allowed
    compiled._flatten()
    return compiled


class FloodingState:
    """Epoch-keyed cache of the compiled PCG across engine runs.

    The epoch is (source name, target name, source revision, target
    revision, active-set); a matching epoch with nothing noted dirty
    reuses the compiled arrays and buffers outright.  After a schema
    evolution the engine calls :meth:`note_evolution` with the
    structurally-dirty element ids, and the next :meth:`ensure` patches
    the compiled PCG via :func:`patch_pcg` instead of recompiling.  Any
    other epoch change falls back to a full compile.

    Warm starts reuse *structure only*: the fixpoint always iterates
    from σ⁰, so a warm run can never converge to different scores than a
    cold one (see ``tests/harmony/test_flooding_compiled_differential``).
    """

    def __init__(self) -> None:
        self.compiled: Optional[CompiledPCG] = None
        self._key: Optional[Tuple] = None
        self._pending: Optional[Tuple[Set[str], Set[str]]] = None
        self.compiles = 0
        self.patches = 0
        self.hits = 0

    def note_evolution(
        self,
        dirty_source: Iterable[str],
        dirty_target: Iterable[str],
    ) -> None:
        """Mark element ids whose edge structure changed; the next
        :meth:`ensure` patches instead of rebuilding — even on an
        unchanged epoch, since graphs read back from the blackboard carry
        the same revision whatever their content."""
        if self._pending is None:
            self._pending = (set(), set())
        self._pending[0].update(dirty_source)
        self._pending[1].update(dirty_target)

    def ensure(
        self,
        source: SchemaGraph,
        target: SchemaGraph,
        restrict_to: Optional[Set[Pair]] = None,
    ) -> CompiledPCG:
        active = None if restrict_to is None else frozenset(restrict_to)
        key = (source.name, target.name, source.revision, target.revision, active)
        dirty = self._pending is not None and bool(
            self._pending[0] or self._pending[1])
        if self.compiled is not None and key == self._key and not dirty:
            self._pending = None
            self.hits += 1
            return self.compiled
        old_key = self._key
        if (
            self.compiled is not None
            and self._pending is not None
            and old_key is not None
            and old_key[0] == key[0]
            and old_key[1] == key[1]
            and (old_key[4] is None) == (active is None)
        ):
            self.compiled = patch_pcg(
                self.compiled, source, target, restrict_to, *self._pending
            )
            self.patches += 1
        else:
            self.compiled = compile_pcg(source, target, restrict_to)
            self.compiles += 1
        self._key = key
        self._pending = None
        return self.compiled

    def flood(
        self,
        source: SchemaGraph,
        target: SchemaGraph,
        initial: Mapping[Pair, float],
        config: Optional[FloodingConfig] = None,
        restrict_to: Optional[Set[Pair]] = None,
        backend: Optional[SweepBackend] = None,
    ) -> Dict[Pair, float]:
        """Drop-in replacement for :func:`classic_flooding` with the
        compiled structure cached across calls."""
        return self.ensure(source, target, restrict_to).run(
            initial, config, backend=backend
        )


# -- Harmony's directional variant ------------------------------------------------

@dataclass
class DirectionalConfig:
    """Parameters for the directional (up/down) propagation."""

    #: weight of positive child evidence flowing to the parent pair
    up_rate: float = 0.3
    #: weight of negative parent evidence flowing to child pairs
    down_rate: float = 0.4
    iterations: int = 2


def _containment_parent(graph: SchemaGraph, element_id: str) -> Optional[str]:
    parent = graph.parent(element_id)
    return parent.element_id if parent is not None else None


def directional_flooding(
    source: SchemaGraph,
    target: SchemaGraph,
    scores: Mapping[Pair, float],
    config: Optional[DirectionalConfig] = None,
    pinned: Optional[set] = None,
) -> Dict[Pair, float]:
    """Harmony's structural adjustment on [-1, +1] confidences.

    Up: a parent pair absorbs the average of its children pairs' *positive*
    scores.  Down: a child pair absorbs its parent pair's *negative* score.
    Pairs in *pinned* (user-decided links, Section 4.3) are never modified.

    This variant is inherently sparse: the parent/child pair maps are
    derived from the scored pairs alone, so its cost is O(|scores|)
    regardless of schema size — candidate blocking shrinks it for free.
    """
    config = config or DirectionalConfig()
    pinned = pinned or set()
    adjusted: Dict[Pair, float] = {
        pair: clamp_confidence(value) for pair, value in scores.items()
    }

    # child-pair lists per parent pair, derived from containment
    children_of: Dict[Pair, List[Pair]] = {}
    parent_of: Dict[Pair, Pair] = {}
    for (s_id, t_id) in adjusted:
        parent_s = _containment_parent(source, s_id) if s_id in source else None
        parent_t = _containment_parent(target, t_id) if t_id in target else None
        if parent_s is None or parent_t is None:
            continue
        parent_pair = (parent_s, parent_t)
        if parent_pair in adjusted:
            children_of.setdefault(parent_pair, []).append((s_id, t_id))
            parent_of[(s_id, t_id)] = parent_pair

    for _ in range(config.iterations):
        updated = dict(adjusted)
        # positive evidence propagates up
        for parent_pair, child_pairs in children_of.items():
            if parent_pair in pinned:
                continue
            positives = [adjusted[c] for c in child_pairs if adjusted[c] > 0.0]
            if positives:
                boost = config.up_rate * (sum(positives) / len(positives))
                updated[parent_pair] = clamp_confidence(
                    min(0.99, adjusted[parent_pair] + boost)
                )
        # negative evidence trickles down
        for child_pair, parent_pair in parent_of.items():
            if child_pair in pinned:
                continue
            parent_score = adjusted[parent_pair]
            if parent_score < 0.0:
                updated[child_pair] = clamp_confidence(
                    max(-0.99, updated[child_pair] + config.down_rate * parent_score)
                )
        adjusted = updated
    return adjusted


def directional_flooding_compiled(
    source: SchemaGraph,
    target: SchemaGraph,
    scores: Mapping[Pair, float],
    config: Optional[DirectionalConfig] = None,
    pinned: Optional[set] = None,
    backend: Optional[SweepBackend] = None,
) -> Dict[Pair, float]:
    """Bit-identical compiled mirror of :func:`directional_flooding`.

    Scored pairs are interned to int ids in score order; the parent/child
    structure compiles to flat index arrays — parent ids plus a CSR-style
    indptr/children pair (children kept in the reference's list order, so
    positive-child sums accumulate identically), the (child, parent)
    down-sweep arrays, and a pinned byte mask — then *backend* (default:
    the pure-python reference loop) iterates the propagation via
    :meth:`SweepBackend.sweep_directional`.  Every backend's arithmetic
    mirrors the reference statement for statement, so scores are
    bit-identical.
    """
    config = config or DirectionalConfig()
    pinned = pinned or set()
    pairs = list(scores)
    index = {pair: i for i, pair in enumerate(pairs)}
    current = array("d", (clamp_confidence(scores[pair]) for pair in pairs))

    parent_cache_s: Dict[str, Optional[str]] = {}
    parent_cache_t: Dict[str, Optional[str]] = {}
    up_parents = array("l")
    up_children_lists: List[List[int]] = []
    up_slot: Dict[int, int] = {}
    down_child = array("l")
    down_parent = array("l")
    for i, (s_id, t_id) in enumerate(pairs):
        if s_id in parent_cache_s:
            parent_s = parent_cache_s[s_id]
        else:
            parent_s = (
                _containment_parent(source, s_id) if s_id in source else None
            )
            parent_cache_s[s_id] = parent_s
        if t_id in parent_cache_t:
            parent_t = parent_cache_t[t_id]
        else:
            parent_t = (
                _containment_parent(target, t_id) if t_id in target else None
            )
            parent_cache_t[t_id] = parent_t
        if parent_s is None or parent_t is None:
            continue
        j = index.get((parent_s, parent_t))
        if j is None:
            continue
        slot = up_slot.get(j)
        if slot is None:
            slot = up_slot[j] = len(up_parents)
            up_parents.append(j)
            up_children_lists.append([])
        up_children_lists[slot].append(i)
        down_child.append(i)
        down_parent.append(j)

    up_indptr = array("l", [0])
    up_children = array("l")
    for children in up_children_lists:
        up_children.extend(children)
        up_indptr.append(len(up_children))

    pinned_mask = bytearray(len(pairs))
    for pair in pinned:
        i = index.get(pair)
        if i is not None:
            pinned_mask[i] = 1

    if backend is None:
        backend = PYTHON_SWEEP_BACKEND
    _note_sweep_run("directional", backend.name)
    final = backend.sweep_directional(
        current, up_parents, up_indptr, up_children,
        down_child, down_parent, pinned_mask, config,
    )
    return {pair: final[i] for i, pair in enumerate(pairs)}


def flooded_ranking(result: Mapping[Pair, float], top: int = 10) -> List[Tuple[Pair, float]]:
    """The highest-scoring pairs after flooding (diagnostics/benches)."""
    return sorted(result.items(), key=lambda kv: -kv[1])[:top]
