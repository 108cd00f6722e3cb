"""The three workloads: closed loop, one client, one engine call at a time.

Each operation the benchmark times is a single call (or, for a decision,
`submit` then `process_pending`) and is checked after its timing window
closes. A run is a fixed number of rounds per workload, made from the seed
alone, and goes over them in passes until `seconds` are spent (at least
`MIN_PASSES`); every round of a workload attempts the same operations, so
the share of failed operations does not depend on the seed or on the
run's length.
"""

from __future__ import annotations

import contextlib
import filecmp
import gc
import hashlib
import json
import os
import statistics
import time
from collections import Counter, defaultdict

import checks
import gen
from foglet import Engine, load_topology

ROUNDS = {"admit-tree": 5, "admit-mesh": 7, "fault-drain": 1}  # rounds per pass
MIN_PASSES = 3
SETUPS = 3  # fault-drain: set-ups, one before each of the first passes
DRAIN_STEP_S = 10
MAX_DRAIN_STEPS = 200


def collect():
    """Collect, then freeze what is left, before each set-up and each round.

    The collector stays on inside the timing windows, so the collections
    the engine's own allocations trigger are part of its figures. Freezing
    keeps everything alive at this point, the checker's bookkeeping
    included, out of those collections: left in, it made one seed's save
    take 480 to 1,270 ms, depending on the benchmark's memory rather than
    the engine's.
    """
    gc.unfreeze()
    gc.collect()
    gc.freeze()


class Run:
    """Samples, counters and check results of one workload run.

    The first pass over a run's rounds is checked in full. Later passes
    replay the same rounds from the same start state and must reproduce
    the first pass's decisions and reports exactly. Every pass keeps its
    own samples; an operation's time is the slowest of its replays
    (`per_op`). A shared host runs most of the time in a state about 1.5
    times slower than its fast one, which comes in stretches of seconds:
    the slowest of several replays spread over the run reads the usual
    state, where a minimum or a median flips with how much of the run the
    fast state held.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples = defaultdict(lambda: defaultdict(list))  # op kind -> pass -> [ms]
        self.setup_ms = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.outcomes = Counter()
        self.info = {}
        self.pass_index = -1  # the set-up before the first pass
        self.check_ns = 0  # time inside `checking`

    def op(self, kind, fn, *args, counted=True, tag=None):
        """One timed operation; set-up operations are not counted as attempted,
        so that `attempted` is made of whole rounds. `tag` marks the
        operation's spans for the trace breakdown."""
        self.attempted += counted
        # Spans of the first MIN_PASSES passes are enough for per-op ratios
        # and keep a traced run's memory bounded.
        tracer = self.tracer if self.pass_index < MIN_PASSES else None
        if tracer is not None:
            tracer.begin(kind, tag)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter_ns()
            if tracer is not None:
                tracer.end(t0, t1)
            self.samples[kind][self.pass_index].append((t1 - t0) / 1e6)

    def per_op(self, kind):
        """Each operation's slowest time over the passes that ran it (the
        i-th operation of a kind is the same one in every pass). The checked
        pass's operations, timed between checks, count only for kinds no
        other pass runs; the set-up before it counts."""
        passes = [v for p, v in self.samples[kind].items() if p] or list(self.samples[kind].values())
        n = max(map(len, passes), default=0)
        return [max(p[i] for p in passes if i < len(p)) for i in range(n)]

    @contextlib.contextmanager
    def checking(self):
        """Marks work that only the checked first pass does."""
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.check_ns += time.perf_counter_ns() - t0

    def check(self, problems):
        if problems:
            self.info["check_failures"] = self.info.get("check_failures", 0) + len(problems)
            self.problems.extend(problems[: max(0, 10 - len(self.problems))])

    @property
    def correct(self):
        return not self.info.get("check_failures")


def decide(engine, doc):
    rid = engine.submit(doc)
    return rid, engine.process_pending()


def _decision(run, engine, doc, counted=True):
    covered = any("network" in r for r in doc.get("requirements", ()))
    rid, records = run.op("decision", decide, engine, doc, counted=counted,
                          tag="covered" if covered else None)
    if len(records) != 1 or records[0].request_id != rid:
        run.check([f"submit {rid} produced {len(records)} decision records"])
    return records[0]


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _record_key(r):
    return [r.request_id, r.outcome, r.node_id, [list(x) for x in r.reasons]]


def _flows(engine):
    return engine.flowsim.state_document()["flows"]


def _advance(run, engine, faults, dt):
    """Timed advance and report; checked when `faults` is given."""
    run.op("advance", engine.advance, dt)
    report = run.op("report", engine.report)
    if faults is not None:
        with run.checking():
            run.check(faults.problems(report, _flows(engine), dt))
    return report


def _passes(run, deadline, replay_pass):
    """Pass 0 checks every output; later passes replay it. Passes go on
    while one more, as long as the last pass without its checks, still
    ends before `deadline`; there are at least MIN_PASSES."""
    run.info["pass_s"] = []
    p = 0
    while True:
        t0, check0 = time.perf_counter(), run.check_ns
        run.pass_index = p
        replay_pass(p)
        t1 = time.perf_counter()
        run.info["pass_s"].append(round(t1 - t0, 2))
        p += 1
        unchecked = t1 - t0 - (run.check_ns - check0) / 1e9
        if p >= MIN_PASSES and t1 + unchecked > deadline:
            break
    run.info["passes"] = p


# -- admit-tree / admit-mesh ------------------------------------------------------


def _build(topo_doc, docs):
    engine = Engine(load_topology(topo_doc))
    return engine, [decide(engine, d)[1][0] for d in docs]


def admit(workload, seed, deadline, run, workdir):
    topo_doc = (gen.tree_topology if workload == "admit-tree" else gen.mesh_topology)(seed)
    probes = gen.probe_base_requests() if workload == "admit-tree" else []
    base_docs = probes + gen.admit_stream(workload, seed, -1, topo_doc)
    streams = [gen.admit_stream(workload, seed, r, topo_doc) for r in range(ROUNDS[workload])]
    net = checks.Net(topo_doc)

    digests = set()

    def setup():
        collect()
        t0 = time.perf_counter_ns()
        built = run.op("setup", _build, topo_doc, base_docs, counted=False)
        run.setup_ms.append((time.perf_counter_ns() - t0) / 1e6)
        digests.add(_digest([_record_key(r) for r in built[1]]))
        return built

    engine, records = setup()
    problems, base_ledger = checks.population_problems(
        net, base_docs, records, engine.inventory.state_document(), _flows(engine))
    run.check(problems)
    run.check([f"probe base {r.request_id} not placed"
               for r in records[: len(probes)] if r.outcome != "placed"])
    base_path = os.path.join(workdir, "base.fgst")
    engine.save(base_path)
    run.info["base"] = {"placed": sum(r.outcome == "placed" for r in records),
                        "decisions": len(records)}
    engine = records = None

    expected = []

    def replay_pass(p):
        if p:
            setup()  # one per pass, so that setup_s rests on several set-ups
        for r, stream in enumerate(streams):
            collect()
            got = _admit_round(run, net, base_ledger, base_path, stream, workdir,
                               expected[r] if p else None)
            if p == 0:
                expected.append(got)

    _passes(run, deadline, replay_pass)
    if len(digests) != 1:
        run.check(["set-up decisions differ between repeats"])
    run.info["digest"] = {"decisions": _digest([k for e in expected for k in e[0]]),
                          "report": expected[-1][2]}


def _admit_round(run, net, base_ledger, base_path, stream, workdir, expected):
    """One round: load the base state, the fault epilogue, the stream, a
    report and a save. Returns (decision keys, failed flags, final report
    digest)."""
    engine = run.op("load", Engine.load, base_path)
    first = expected is None
    _fault_epilogue(run, engine, net, first)
    if first:
        with run.checking():
            ledger = base_ledger.copy()
            inv, flows = engine.inventory.state_document(), _flows(engine)
    keys, fails = [], []
    for i, doc in enumerate(stream):
        record = _decision(run, engine, doc)
        key = _record_key(record)
        if first:
            with run.checking():
                inv_after, flows_after = engine.inventory.state_document(), _flows(engine)
                problems, disagree = checks.decision_problems(
                    net, ledger, doc, record, inv, inv_after, flows, flows_after)
            run.check(problems)
            if disagree:
                run.info["float_vcpu_wrong_verdicts"] = (
                    run.info.get("float_vcpu_wrong_verdicts", 0) + len(disagree))
            run.outcomes[checks.outcome_class(record)] += 1
            inv, flows = inv_after, flows_after
            failed = bool(disagree)
        else:
            if key != expected[0][i]:
                run.check([f"replayed {record.request_id} decided differently"])
            failed = expected[1][i]
        run.failed += failed
        keys.append(key)
        fails.append(failed)
    if first:
        run.info["flows_at_round_end"] = len(flows)
    report = run.op("report", engine.report)
    run.op("save", engine.save, os.path.join(workdir, "round.fgst"))
    digest = _digest(report.to_dict())
    if not first and digest != expected[2]:
        run.check(["replayed round reported differently"])
    return keys, fails, digest


def _fault_epilogue(run, engine, net, check):
    """Fail every link, one at a time and in id order, advancing and
    reporting while it is down, then restore it. Every round does this on
    the base state it starts from (20 flows on admit-tree, 12 on admit-mesh,
    for every seed), so the admit
    workloads' fault, advance and report figures cover the whole network on
    a state of the same make-up whatever the seed."""
    faults = checks.FaultModel(net) if check else None
    if check:
        with run.checking():
            faults.start(engine.report())
    for lid in sorted(net.links):
        run.op("link_down", engine.set_link_state, lid, False)
        net.set_link(lid, False)
        _advance(run, engine, faults, DRAIN_STEP_S)
        run.op("link_up", engine.set_link_state, lid, True)
        net.set_link(lid, True)


# -- fault-drain -------------------------------------------------------------------


def _new_engine(topo_doc):
    return Engine(load_topology(topo_doc))


def fault_drain(workload, seed, deadline, run, workdir):
    """Every pass storms a copy of the set-up state, loaded untimed from
    its checkpoint, so that every pass starts alike. The set-up (808
    admissions, which give fault-drain's admit figures) runs before the
    first SETUPS passes. Rounds after the first of a pass carry on with the
    same engine."""
    topo_doc = gen.drain_topology(seed)
    population = gen.drain_population(seed, topo_doc)
    storms = [gen.storm_round(seed, r, topo_doc) for r in range(ROUNDS[workload])]
    net = checks.Net(topo_doc)
    digests = set()

    def setup():
        collect()
        t0 = time.perf_counter_ns()
        engine = run.op("setup", _new_engine, topo_doc, counted=False)
        records = [_decision(run, engine, doc, counted=False) for doc in population]
        run.setup_ms.append((time.perf_counter_ns() - t0) / 1e6)
        digests.add(_digest([_record_key(r) for r in records]))
        return engine, records

    engine, records = setup()
    run.check([f"{r.request_id} rejected in set-up" for r in records if r.outcome != "placed"])
    flows = _flows(engine)
    problems, _ = checks.population_problems(
        net, population, records, engine.inventory.state_document(), flows)
    run.check(problems)
    for r in records:
        run.outcomes[checks.outcome_class(r)] += 1
    run.info["flows"] = len(flows)
    start_path = os.path.join(workdir, "start.fgst")
    engine.save(start_path)
    engine = records = flows = None
    state, expected = {}, []

    def replay_pass(p):
        state["engine"] = None
        if 0 < p < SETUPS:
            setup()
        collect()
        state["engine"] = Engine.load(start_path)
        faults = None
        if p == 0:
            with run.checking():
                faults = checks.FaultModel(net)
                faults.start(state["engine"].report())
        for r, storm in enumerate(storms):
            collect()
            state["engine"], got, report = _storm(run, state["engine"], net, faults, storm,
                                                  workdir, expected[r] if p else None)
            if p == 0:
                expected.append(got)
            if p == r == 0:
                run.info["lost_flows"] = sum(f.bytes_lost > 0 for f in report.flows)
                run.info["cached_peak_flows"] = sum(f.bytes_cached_peak > 0 for f in report.flows)

    _passes(run, deadline, replay_pass)
    if len(digests) != 1:
        run.check(["set-up decisions differ between repeats"])
    run.info["digest"] = {"decisions": digests.pop(), "report": expected[-1][-1]}


def _storm(run, engine, net, faults, storm, workdir, expected):
    """One storm round, the mid-drain checkpoint, then advances until every
    buffer is empty. Returns the engine that carries on (the loaded copy)
    and the digests of the reports after each advance."""
    digests = []

    def step(eng, dt):
        report = _advance(run, eng, faults, dt)
        digests.append(_digest(report.to_dict()))
        return report

    for kind, arg in storm:
        if kind == "advance":
            step(engine, arg)
        else:
            run.op(f"link_{kind}", engine.set_link_state, arg, kind == "up")
            net.set_link(arg, kind == "up")
    engine = _checkpoint(run, engine, workdir, step, expected is None)
    for _ in range(MAX_DRAIN_STEPS):
        report = step(engine, DRAIN_STEP_S)
        if len(digests) == len(expected) if expected else \
                all(f.bytes_cached == 0 for f in report.flows):
            break
    if expected is None:
        with run.checking():
            run.check(checks.drained_problems(report))
    elif digests != expected:
        run.check(["replayed storm reported differently"])
    return engine, digests, report


def _checkpoint(run, engine, workdir, step, check):
    """Mid-drain save -> load -> save -> load; on the checked pass the
    copies must write the same bytes and report the same counters now and,
    the last one, after a further advance. The run goes on with the last
    copy."""
    first, second = os.path.join(workdir, "a.fgst"), os.path.join(workdir, "b.fgst")
    run.op("save", engine.save, first)
    copy = run.op("load", Engine.load, first)
    run.op("save", copy.save, second)
    loaded = run.op("load", Engine.load, second)
    if not check:
        step(loaded, DRAIN_STEP_S)
        return loaded
    with run.checking():
        problems = []
        if not filecmp.cmp(first, second, shallow=False):
            problems.append("save -> load -> save is not byte-identical")
        now = engine.report()
        if copy.report() != now or loaded.report() != now:
            problems.append("loaded engine reports differently")
        if not any(f.bytes_cached for f in now.flows):
            problems.append("checkpoint was not taken mid-drain")
        engine.advance(DRAIN_STEP_S)
        after = engine.report()
    if step(loaded, DRAIN_STEP_S) != after:
        problems.append("loaded engine reports differently after a further advance")
    run.check(problems)
    return loaded


WORKLOADS = {"admit-tree": admit, "admit-mesh": admit, "fault-drain": fault_drain}


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def end_to_end(run):
    """The end-to-end metrics, each over every operation's slowest replay."""
    decisions = run.per_op("decision")

    def p50(kind):
        return statistics.median(run.per_op(kind))

    return {
        "setup_s": (max(run.setup_ms) / 1000, "s"),
        "admit_p50_ms": (statistics.median(decisions), "ms"),
        "admit_p95_ms": (percentile(decisions, 95), "ms"),
        "decisions_per_s": (len(decisions) / (sum(decisions) / 1000), "1/s"),
        "link_down_p50_ms": (p50("link_down"), "ms"),
        "link_up_p50_ms": (p50("link_up"), "ms"),
        "advance_p50_ms": (p50("advance"), "ms"),
        "report_p50_ms": (p50("report"), "ms"),
        "save_ms": (p50("save"), "ms"),
        "load_ms": (p50("load"), "ms"),
    }
