"""The traced run: spans and counters around the calls into every layer.

The tracer patches public entry points of the program from outside —
class methods on their class, module functions in the module that calls
them — for the duration of each traced op, and unpatches them for the
untraced ops, so untraced ops run the program unmodified.  Nothing in
``src/`` changes.

Spans carry name, layer, start, end, parent and op id; they are held in
memory and written out at the end.  A span's self time is its duration
minus the time of its child spans (children nest on one thread's
stack).  Voter ``score`` runs once per candidate pair, so its time is
aggregated per voter instead of recorded as spans.  Counters are per-op
deltas of the program's existing public stats.
"""

import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict

from measure import tail_or_max

#: every layer a span can belong to, in report order
LAYERS = (
    "loaders", "text", "blocking", "voters", "merger", "flooding", "engine",
    "multisource", "matrix", "rdf", "query", "durability", "workbench",
    "serving",
)

RDF_WRITES = {"rdf.serialize_matrix", "rdf.serialize_schema",
              "rdf.schema_to_rdf"}
RDF_READS = {"rdf.read_schema", "rdf.read_matrix"}


def _targets(voter_types):
    """``(owner, attribute, span name, layer, kind, hook)`` for every
    patched entry point; kind is "span" or "agg"."""
    from repro import loaders
    from repro.core.matrix import MappingMatrix
    from repro.harmony import engine, multisource
    from repro.harmony.blocking import CandidateBlocker
    from repro.harmony.flooding import FloodingState
    from repro.harmony.merger import VoteMerger
    from repro.loaders.er_model import ErModelLoader
    from repro.rdf import schema_rdf
    from repro.rdf.durability import DurableStore
    from repro.rdf.store import TripleStore
    from repro.serving import server
    from repro.serving.jobs import Job
    from repro.serving.queue import JobQueue
    from repro.text.tfidf_sparse import SparseTfIdf
    from repro.workbench import evolution, queries, versioning
    from repro.workbench.events import EventBus
    from repro.workbench.tools import LoaderTool, MatcherTool
    from repro.workbench.transactions import Transaction

    targets = [
        (ErModelLoader, "load", "loaders.er", "loaders", "span", "elements"),
        (loaders, "load_sql", "loaders.sql", "loaders", "span", "elements"),
        (loaders, "load_xsd", "loaders.xsd", "loaders", "span", "elements"),
        (engine, "MatchContext", "text.context", "text", "span", None),
        (SparseTfIdf, "all_pairs", "text.all_pairs", "text", "span", None),
        (CandidateBlocker, "candidates", "blocking.candidates", "blocking",
         "span", "blocking"),
        (VoteMerger, "merge", "merger.merge", "merger", "span", "votes"),
        (FloodingState, "flood", "flooding.state", "flooding", "span", None),
        (engine, "directional_flooding_compiled", "flooding.directional",
         "flooding", "span", None),
        (engine.HarmonyEngine, "match", "engine.match", "engine", "span", None),
        (engine.HarmonyEngine, "rematch", "engine.rematch", "engine", "span",
         None),
        (multisource, "select_pairs", "multisource.select", "multisource",
         "span", "selection"),
        (multisource, "match_all_pairs", "multisource.match_all",
         "multisource", "span", None),
        (multisource, "cluster_elements", "multisource.cluster",
         "multisource", "span", None),
        (MappingMatrix, "set_cells", "matrix.set_cells", "matrix", "span",
         "cells"),
        (schema_rdf, "serialize_matrix", "rdf.serialize_matrix", "rdf",
         "span", None),
        (schema_rdf, "serialize_schema", "rdf.serialize_schema", "rdf",
         "span", None),
        (schema_rdf, "schema_to_rdf", "rdf.schema_to_rdf", "rdf", "span",
         None),
        (schema_rdf, "rdf_to_schema", "rdf.read_schema", "rdf", "span", None),
        (schema_rdf, "rdf_to_matrix", "rdf.read_matrix", "rdf", "span", None),
        (TripleStore, "add_many", "rdf.add_many", "rdf", "span", None),
        (TripleStore, "remove_many", "rdf.remove_many", "rdf", "span", None),
        (queries, "evaluate", "query.evaluate", "query", "span", "rows"),
        (DurableStore, "checkpoint", "wal.checkpoint", "durability", "span",
         None),
        (Transaction, "commit", "workbench.commit", "workbench", "span", None),
        (EventBus, "publish", "workbench.publish", "workbench", "span", None),
        (MatcherTool, "invoke", "workbench.matcher_tool", "workbench", "span",
         None),
        (LoaderTool, "invoke", "workbench.loader_tool", "workbench", "span",
         None),
        (evolution, "evolve_and_rematch", "workbench.evolve_and_rematch",
         "workbench", "span", "evolve_wal"),
        (evolution, "apply_evolution", "evolution.apply", "workbench", "span",
         None),
        (server, "apply_evolution", "evolution.apply", "workbench", "span",
         None),
        (versioning, "diff_schemas", "evolution.diff", "workbench", "span",
         None),
        (server, "diff_schemas", "evolution.diff", "workbench", "span", None),
        (JobQueue, "push", "serving.push", "serving", "span", "push"),
        (JobQueue, "pop", "serving.pop", "serving", "span", None),
        (Job, "start", "serving.start", "serving", "span", "start"),
        (Job, "resolve", "serving.resolve", "serving", "span", "end"),
        (Job, "fail", "serving.fail", "serving", "span", "end"),
    ]
    for voter_type, voter_name in voter_types:
        targets.append((voter_type, "prepare", f"voters.prepare.{voter_name}",
                        "voters", "span", None))
        targets.append((voter_type, "score", f"voters.score.{voter_name}",
                        "voters", "agg", None))
    return targets


def _voter_types():
    from repro.harmony import default_voters

    return [(type(voter), voter.name) for voter in default_voters()]


# span record fields (a list per span, mutated while the span is open)
_ID, _NAME, _LAYER, _START, _END, _PARENT, _OP, _CHILD = range(8)


class Tracer:
    """Spans and per-op counter deltas for one traced run."""

    def __init__(self, workload):
        self.workload = workload
        self.voter_types = _voter_types()
        self.voter_names = [name for _, name in self.voter_types]
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self.op = None
        self._patched = []
        #: (op, name) -> ns of aggregated calls, and call counts
        self.agg_ns = defaultdict(int)
        self.agg_calls = defaultdict(int)
        #: op -> ns spent in the tracer's own hooks inside the op
        self.hook_ns = defaultdict(int)
        #: (op, counter) -> value recorded by hooks
        self.noted = defaultdict(float)
        #: op -> wall ms (sequential workloads)
        self.walls = {}
        #: op -> counter deltas
        self.deltas = {}
        self.units = 0
        self.ops = []
        #: job id -> {"op", "push", "start", "end", "depth"}
        self.jobs = {}
        self._before = None

    # -- patching -------------------------------------------------------------

    def install(self):
        for owner, attr, name, layer, kind, hook in _targets(self.voter_types):
            original = getattr(owner, attr)
            had_own = attr in vars(owner)
            wrapper = (self._aggregate(original, name) if kind == "agg"
                       else self._span(original, name, layer, hook))
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, original, had_own))

    def uninstall(self):
        while self._patched:
            owner, attr, original, had_own = self._patched.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _current_op(self):
        op = getattr(self._local, "op", None)
        if op is None and threading.get_ident() == self._main:
            return self.op
        return op

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, original, name, layer, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            record = [next(tracer._ids), name, layer, time.perf_counter_ns(),
                      0, parent[_ID] if parent else None,
                      tracer._current_op(), 0]
            stack.append(record)
            wal_before = (tracer._durable_bytes(args[0])
                          if hook == "evolve_wal" else None)
            try:
                result = original(*args, **kwargs)
            finally:
                record[_END] = time.perf_counter_ns()
                stack.pop()
                if parent is not None:
                    parent[_CHILD] += record[_END] - record[_START]
                tracer.spans.append(record)
            if hook is not None:
                started = time.perf_counter_ns()
                tracer._hook(hook, record, args, result, wal_before)
                spent = time.perf_counter_ns() - started
                tracer.hook_ns[record[_OP]] += spent
                if parent is not None:
                    parent[_CHILD] += spent
            return result

        return wrapper

    def _aggregate(self, original, name):
        tracer = self

        def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                spent = time.perf_counter_ns() - start
                stack = tracer._stack()
                if stack:
                    stack[-1][_CHILD] += spent
                op = tracer._current_op()
                tracer.agg_ns[(op, name)] += spent
                tracer.agg_calls[(op, name)] += 1

        return wrapper

    @staticmethod
    def _durable_bytes(manager):
        durability = manager.blackboard.durability
        return durability.stats["bytes_appended"] if durability else 0

    def _hook(self, hook, record, args, result, wal_before):
        op = record[_OP]
        if hook == "elements":
            self.noted[(op, "loaders.elements")] += len(result)
        elif hook == "blocking":
            self.noted[(op, "blocking.kept")] += len(result.pairs)
            self.noted[(op, "blocking.total")] += result.total_pairs
        elif hook == "votes":
            self.noted[(op, "merger.votes")] += len(args[1])
        elif hook == "selection":
            self.noted[(op, "multisource.kept")] += result.kept_pairs
            self.noted[(op, "multisource.total")] += result.total_pairs
        elif hook == "cells":
            self.noted[(op, "matrix.cells")] += args[0].cell_count()
        elif hook == "rows":
            from repro.rdf.query import explain

            plan = explain(args[0], args[1])
            self.noted[(op, "query.rows")] += sum(s.actual for s in plan.steps)
            self.noted[(op, "query.results")] += len(result)
        elif hook == "evolve_wal":
            self.noted[(op, "wal.evolve_bytes")] += (
                self._durable_bytes(args[0]) - wal_before)
        elif hook == "push":
            queue, job = args[0], args[1]
            self.jobs[job.job_id] = {
                "op": self.op, "push": record[_START],
                "depth": queue.pending() - 1}
        elif hook == "start":
            job = args[0]
            entry = self.jobs.get(job.job_id)
            if entry is not None:
                entry["start"] = record[_END]
                self._local.op = entry["op"]
        elif hook == "end":
            job = args[0]
            entry = self.jobs.get(job.job_id)
            if entry is not None:
                entry["end"] = record[_START]
            self._local.op = None

    # -- per-op bookkeeping ---------------------------------------------------

    def _counters(self, state):
        from repro.harmony.flooding import sweep_run_stats
        from repro.rdf.schema_rdf import serialization_stats
        from repro.text import kernels
        from repro.text.tfidf_sparse import all_pairs_stats

        out = defaultdict(float)
        for cache in kernels.cache_stats().values():
            out["kernel_hits"] += cache["hits"]
            out["kernel_misses"] += cache["misses"]
        for key, value in all_pairs_stats().items():
            out[key] += value
        for key, value in serialization_stats().items():
            out[key] += value
        for key, value in sweep_run_stats().items():
            out["sweeps_" + key.rsplit("_", 1)[1]] += value
        engines = {}
        for engine in self.workload.engines(state):
            stats = engine.fastpath_stats()
            engines[id(engine)] = {
                key: stats[key] for key in (
                    "context_builds", "rematch_patches", "flooding_compiles",
                    "flooding_patches", "flooding_hits", "blocking_builds",
                    "blocking_patches", "blocking_hits")}
        out["store_triples"] = 0
        for blackboard in self.workload.stores(state):
            out["store_triples"] += len(blackboard.store)
            if blackboard.durability is not None:
                for key, value in blackboard.durability.stats.items():
                    out["wal_" + key] += value
        server = state.get("server") if isinstance(state, dict) else None
        if server is not None:
            out["rejected"] += server.stats()["rejected"]
        return out, engines

    def begin_op(self, op, state, units=1):
        self._before = self._counters(state)
        self.install()
        self.op = op
        self.ops.append(op)
        self.units += units

    def end_op(self, op, state, wall_ms):
        self.uninstall()
        self.op = None
        after, engines_after = self._counters(state)
        before, engines_before = self._before
        delta = {key: after[key] - before.get(key, 0.0) for key in after}
        delta["store_triples"] = after["store_triples"]
        for engine_id, stats in engines_after.items():
            previous = engines_before.get(engine_id, {})
            for key, value in stats.items():
                delta["fastpath_" + key] = (delta.get("fastpath_" + key, 0)
                                            + value - previous.get(key, 0))
        self.deltas[op] = delta
        self.walls[op] = wall_ms

    # -- report ---------------------------------------------------------------

    def _by_name(self):
        names = {}
        for record in self.spans:
            names[record[_ID]] = record[_NAME]
        return names

    def report(self, timed):
        """Per-layer metrics over the traced ops, plus diagnostics."""
        units = max(1, self.units)
        names = self._by_name()
        ops = set(self.ops)
        spans = [r for r in self.spans if r[_OP] in ops]

        def duration(record):
            return record[_END] - record[_START]

        def inclusive_ms(wanted, within=None):
            within = wanted if within is None else within
            total = sum(duration(r) for r in spans if r[_NAME] in wanted
                        and names.get(r[_PARENT]) not in within)
            return total / 1e6 / units

        def count(name):
            return sum(1 for r in spans if r[_NAME] == name)

        def noted(key):
            return sum(v for (op, k), v in self.noted.items()
                       if k == key and op in ops)

        def delta(key):
            return sum(d.get(key, 0.0) for d in self.deltas.values())

        def ratio(part, whole):
            return part / whole if whole else 0.0

        m = {}
        m["loaders.parse_ms"] = (inclusive_ms(
            {"loaders.er", "loaders.sql", "loaders.xsd"}), "ms")
        m["loaders.elements"] = (noted("loaders.elements") / units, "count")
        m["text.context_ms"] = (inclusive_ms({"text.context"}), "ms")
        m["text.kernel_hit_rate"] = (ratio(
            delta("kernel_hits"),
            delta("kernel_hits") + delta("kernel_misses")), "ratio")
        m["text.allpairs_ms"] = (inclusive_ms({"text.all_pairs"}), "ms")
        m["text.allpairs_csr_share"] = (ratio(
            delta("allpairs_csr_sweeps"),
            delta("allpairs_csr_sweeps") + delta("allpairs_merge_sweeps")),
            "ratio")
        m["blocking.ms"] = (inclusive_ms({"blocking.candidates"}), "ms")
        m["blocking.kept_ratio"] = (ratio(
            noted("blocking.kept"), noted("blocking.total")), "ratio")
        for key in ("builds", "patches", "hits"):
            m[f"blocking.{key}"] = (
                delta(f"fastpath_blocking_{key}") / units, "count")
        score_calls = 0
        for voter in self.voter_names:
            m[f"voters.prepare_ms.{voter}"] = (
                inclusive_ms({f"voters.prepare.{voter}"}), "ms")
            name = f"voters.score.{voter}"
            m[f"voters.score_ms.{voter}"] = (sum(
                v for (op, k), v in self.agg_ns.items()
                if k == name and op in ops) / 1e6 / units, "ms")
            score_calls += sum(v for (op, k), v in self.agg_calls.items()
                               if k == name and op in ops)
        m["voters.score_calls"] = (score_calls / units, "count")
        m["merger.ms"] = (inclusive_ms({"merger.merge"}), "ms")
        m["merger.votes"] = (noted("merger.votes") / units, "count")
        m["flooding.ms"] = (inclusive_ms(
            {"flooding.state", "flooding.directional"}), "ms")
        for key in ("compiles", "patches", "hits"):
            m[f"flooding.{key}"] = (
                delta(f"fastpath_flooding_{key}") / units, "count")
        for backend in ("python", "numpy", "c"):
            m[f"flooding.sweeps_{backend}"] = (
                delta(f"sweeps_{backend}") / units, "count")
        m["engine.match_ms"] = (inclusive_ms(
            {"engine.match"}, {"engine.match", "engine.rematch"}), "ms")
        m["engine.rematch_ms"] = (inclusive_ms({"engine.rematch"}), "ms")
        m["engine.context_builds_per_op"] = (
            count("text.context") / units, "count")
        m["engine.rematch_patches"] = (
            delta("fastpath_rematch_patches") / units, "count")
        m["multisource.select_ms"] = (
            inclusive_ms({"multisource.select"}), "ms")
        m["multisource.match_all_ms"] = (
            inclusive_ms({"multisource.match_all"}), "ms")
        m["multisource.cluster_ms"] = (
            inclusive_ms({"multisource.cluster"}), "ms")
        m["multisource.kept_ratio"] = (ratio(
            noted("multisource.kept"), noted("multisource.total")), "ratio")
        m["multisource.per_pair_ms"] = (ratio(
            m["multisource.match_all_ms"][0] * units,
            noted("multisource.kept")), "ms")
        m["matrix.set_cells_ms"] = (inclusive_ms({"matrix.set_cells"}), "ms")
        m["matrix.cells"] = (noted("matrix.cells") / units, "count")
        m["rdf.write_ms"] = (inclusive_ms(RDF_WRITES), "ms")
        m["rdf.read_ms"] = (inclusive_ms(RDF_READS), "ms")
        m["rdf.triples_written_per_op"] = ((
            delta("matrix_triples_written")
            + delta("schema_triples_written")) / units, "count")
        m["rdf.triples_removed_per_op"] = ((
            delta("matrix_triples_removed")
            + delta("schema_triples_removed")) / units, "count")
        m["rdf.store_triples"] = (statistics.mean(
            d["store_triples"] for d in self.deltas.values())
            if self.deltas else 0.0, "count")
        m["query.ms"] = (inclusive_ms({"query.evaluate"}), "ms")
        m["query.rows_examined_per_result"] = (ratio(
            noted("query.rows"), noted("query.results")), "ratio")
        m["wal.bytes_per_op"] = (delta("wal_bytes_appended") / units, "bytes")
        m["wal.evolve_bytes_per_op"] = (
            noted("wal.evolve_bytes") / units, "bytes")
        m["wal.frames_per_op"] = (delta("wal_frames_appended") / units,
                                  "count")
        m["wal.fsyncs_per_op"] = (delta("wal_fsyncs") / units, "count")
        m["wal.checkpoints"] = (delta("wal_checkpoints") / units, "count")
        checkpoints = [duration(r) / 1e6 for r in spans
                       if r[_NAME] == "wal.checkpoint"]
        m["wal.checkpoint_ms"] = (
            statistics.mean(checkpoints) if checkpoints else 0.0, "ms")
        m["workbench.commit_ms"] = (inclusive_ms({"workbench.commit"}), "ms")
        m["workbench.events_per_op"] = (
            count("workbench.publish") / units, "count")
        m["evolution.diff_ms"] = (inclusive_ms({"evolution.diff"}), "ms")
        m["evolution.apply_ms"] = (inclusive_ms({"evolution.apply"}), "ms")
        m.update(self._serving(ops))
        m["serving.rejected"] = (delta("rejected") / units, "count")
        shares, diag = self._shares(spans, ops)
        m.update(shares)
        untraced = [v for v, t in zip(timed.latencies_ms, timed.traced)
                    if not t]
        traced = [v for v, t in zip(timed.latencies_ms, timed.traced) if t]
        overhead = (statistics.median(traced) - statistics.median(untraced)
                    if traced and untraced else 0.0)
        m["trace.overhead_ms"] = (overhead, "ms")
        m["trace.spans_per_op"] = (len(spans) / units, "count")
        diag["diag.traced_units"] = self.units
        diag["diag.untraced_p50_ms"] = (
            statistics.median(untraced) if untraced else 0.0)
        diag["diag.traced_p50_ms"] = (
            statistics.median(traced) if traced else 0.0)
        return {"metrics": m, "diag": diag}

    def _serving(self, ops):
        jobs = [j for j in self.jobs.values()
                if j["op"] in ops and "start" in j and "end" in j]
        waits = [(j["start"] - j["push"]) / 1e6 for j in jobs]
        services = [(j["end"] - j["start"]) / 1e6 for j in jobs]

        return {
            "serving.queue_wait_ms": (
                statistics.median(waits) if waits else 0.0, "ms"),
            "serving.queue_wait_tail_ms": (
                tail_or_max(waits)[1] if waits else 0.0, "ms"),
            "serving.service_ms": (
                statistics.median(services) if services else 0.0, "ms"),
            "serving.service_tail_ms": (
                tail_or_max(services)[1] if services else 0.0, "ms"),
            "serving.queue_depth": (statistics.mean(
                j["depth"] for j in jobs) if jobs else 0.0, "count"),
        }

    def _shares(self, spans, ops):
        """Layer self-time shares of traced op time, plus the
        ``unattributed`` remainder the spans do not cover."""
        self_ns = defaultdict(int)
        for record in spans:
            if record[_NAME] == "serving.pop":
                continue  # an idle worker waiting for work, not op time
            self_ns[record[_LAYER]] += (record[_END] - record[_START]
                                        - record[_CHILD])
        for (op, name), value in self.agg_ns.items():
            if op in ops:
                self_ns["voters"] += value
        hooks = sum(v for op, v in self.hook_ns.items() if op in ops)
        jobs = [j for j in self.jobs.values()
                if j["op"] in ops and "start" in j and "end" in j]
        if jobs:
            # served requests: op time is each request's push-to-resolve
            # latency, and the queue wait is the serving layer's
            total = sum(j["end"] - j["push"] for j in jobs)
            self_ns["serving"] += sum(j["start"] - j["push"] for j in jobs)
        else:
            # the tracer's own hooks run inside the op but belong to no
            # layer: leave them out of the op time
            total = sum(self.walls.get(op, 0.0) for op in ops) * 1e6 - hooks
        unattributed = total - sum(self_ns.values())
        out = {}
        for layer in LAYERS:
            out[f"share.{layer}"] = (
                self_ns.get(layer, 0) / total if total else 0.0, "ratio")
        out["share.unattributed"] = (
            unattributed / total if total else 0.0, "ratio")
        diag = {"diag.hook_ms_per_op": hooks / 1e6 / max(1, self.units)}
        return out, diag

    def write(self, directory, seed):
        """Spans (JSON lines) and per-op counter deltas, one file each."""
        os.makedirs(directory, exist_ok=True)
        stem = os.path.join(directory, f"{self.workload.name}-seed{seed}")
        names = self._by_name()
        with open(stem + "-spans.jsonl", "w") as handle:
            for record in self.spans:
                handle.write(json.dumps({
                    "id": record[_ID], "name": record[_NAME],
                    "layer": record[_LAYER], "start_ns": record[_START],
                    "end_ns": record[_END], "parent": record[_PARENT],
                    "parent_name": names.get(record[_PARENT]),
                    "op": record[_OP],
                    "self_ns": (record[_END] - record[_START]
                                - record[_CHILD]),
                }) + "\n")
        with open(stem + "-counters.json", "w") as handle:
            json.dump({str(op): d for op, d in self.deltas.items()}, handle,
                      indent=1, sort_keys=True)
        return stem + "-spans.jsonl"
