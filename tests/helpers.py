"""Shared helpers for scheduler tests: run traces with handcrafted
prediction outcomes so timing scenarios are fully controlled, and draw
small looping programs for the property tests."""

from hypothesis import strategies as st

from synth import TraceBuilder

from repro.addrpred.runner import LoadPredictionResult
from repro.bpred.runner import BranchRunResult
from repro.core import MachineConfig
from repro.core.scheduler import WindowScheduler
from repro.trace.records import BRC, LD


def make_branch_result(trace, mispredicted=None):
    """A BranchRunResult with exactly the given mispredicted positions."""
    mispredicted = dict.fromkeys(mispredicted or (), True)
    cls = trace.static.cls
    conditional = sum(1 for s in trace.sidx if cls[s] == BRC)
    return BranchRunResult(mispredicted, conditional,
                           conditional - len(mispredicted), len(trace))


def make_load_prediction(attempted=None, correct=None):
    """A LoadPredictionResult with explicit per-position outcomes."""
    result = LoadPredictionResult()
    result.attempted = dict(attempted or {})
    result.correct = dict(correct or {})
    result.loads = len(result.attempted)
    return result


def prediction_pass(outcomes, narrowed=False):
    """Per-load outcomes as :func:`programs` draws them (0 = none, 1 =
    confident but wrong, 2 = confident and correct) as a prediction
    pass; ``narrowed`` keeps only the confident and correct entries."""
    attempted = {p: True for p, o in outcomes.items()
                 if o == 2 or (o == 1 and not narrowed)}
    correct = {p: True for p, o in outcomes.items() if o == 2}
    return make_load_prediction(attempted, correct)


def sim(trace, width=2, window=None, collapse=None, load_spec="none",
        mispredicted=None, load_pred=None):
    """Simulate with full control over every input."""
    config = MachineConfig(width, window_size=window,
                           collapse_rules=collapse, load_spec=load_spec)
    branch_result = make_branch_result(trace, mispredicted)
    if load_spec == "real" and load_pred is None:
        load_pred = make_load_prediction()
    scheduler = WindowScheduler(trace, config, branch_result, load_pred)
    return scheduler.run()


WORDS = 8
REGS = 6
BASE = 0x100

reg = st.integers(min_value=1, max_value=REGS)
load = st.tuples(st.just("load"), reg, reg)
store = st.tuples(st.just("store"), reg, reg)
# Memory operations are drawn twice as often as the others.
operation = st.one_of(
    st.tuples(st.just("add"), reg, reg, st.integers(0, REGS)),
    st.tuples(st.just("div"), reg, reg),
    load, load, store, store,
    st.tuples(st.just("branch"), reg),
)


def build_trace(body, iterations, words, taken):
    """``iterations`` copies of ``body`` (copies share PCs); memory
    operation ``k`` of the trace touches word ``words[k % len(words)]``
    and branch ``k`` is taken when ``taken[k % len(taken)]``."""
    builder = TraceBuilder(name="recovery")
    for r in range(1, REGS + 1):
        builder.move(dest=r, imm=True)
    template = {}
    mem_ops = branches = 0
    for _ in range(iterations):
        for j, op in enumerate(body):
            kind = op[0]
            addr = taken_now = 0
            if kind in ("load", "store"):
                addr = BASE + 4 * words[mem_ops % len(words)]
                mem_ops += 1
            elif kind == "branch":
                taken_now = taken[branches % len(taken)]
                branches += 1
            if j in template:
                if kind == "branch":
                    builder.repeat(template[j][0])
                    builder.repeat(template[j][1], taken=taken_now)
                else:
                    builder.repeat(template[j], eff_addr=addr)
            elif kind == "add":
                # a second source of 0 means an immediate operand
                template[j] = builder.add(dest=op[1], src1=op[2],
                                          src2=op[3] or -1,
                                          imm=not op[3])
            elif kind == "div":
                template[j] = builder.div(dest=op[1], src1=op[2],
                                          imm=True)
            elif kind == "load":
                template[j] = builder.load(dest=op[1], addr_reg=op[2],
                                           addr=addr)
            elif kind == "store":
                template[j] = builder.store(datasrc=op[1], addr_reg=op[2],
                                            addr=addr)
            else:
                template[j] = (builder.cmp(src1=op[1], imm=True),
                               builder.branch(taken=taken_now))
    return builder.build()


@st.composite
def loop_traces(draw):
    """``build_trace`` of a drawn loop body of at most 10 operations
    over at most ``WORDS`` memory words, so store-to-load arcs are
    common."""
    body = draw(st.lists(operation, min_size=2, max_size=10))
    iterations = draw(st.integers(min_value=2, max_value=6))
    pool = draw(st.integers(min_value=1, max_value=WORDS))
    words = draw(st.lists(st.integers(0, pool - 1), min_size=1,
                          max_size=12))
    taken = draw(st.lists(st.booleans(), min_size=1, max_size=6))
    return build_trace(body, iterations, words, taken)


@st.composite
def programs(draw, traces=loop_traces()):
    """A trace drawn from ``traces`` plus its mispredicted branches and,
    per load, a prediction outcome: 0 = none, 1 = confident but wrong,
    2 = confident and correct."""
    trace = draw(traces)
    static = trace.static
    loads = [i for i in range(len(trace))
             if static.cls[trace.sidx[i]] == LD]
    branches = [i for i in range(len(trace))
                if static.cls[trace.sidx[i]] == BRC]
    outcomes = draw(st.lists(st.integers(0, 2), min_size=len(loads),
                             max_size=len(loads)))
    fenced = draw(st.lists(st.booleans(), min_size=len(branches),
                           max_size=len(branches)))
    mispredicted = [b for b, f in zip(branches, fenced) if f]
    return trace, mispredicted, dict(zip(loads, outcomes))
