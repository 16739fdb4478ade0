"""Result records produced by the timing simulator."""

from ..memdep.stats import MemDepStats
from .branchspecstats import BranchSpecStats
from .daestats import DAEStats
from .vspecstats import ValueSpecStats

#: Load categories (Section 3 / Tables 3-4).
LOAD_READY = "ready"
LOAD_PRED_CORRECT = "predicted_correctly"
LOAD_PRED_INCORRECT = "predicted_incorrectly"
LOAD_NOT_PREDICTED = "not_predicted"

LOAD_CATEGORIES = (LOAD_READY, LOAD_PRED_CORRECT, LOAD_PRED_INCORRECT,
                   LOAD_NOT_PREDICTED)


class LoadStats:
    """Per-run load-speculation behaviour."""

    __slots__ = ("counts",)

    def __init__(self):
        self.counts = {category: 0 for category in LOAD_CATEGORIES}

    def record(self, category):
        self.counts[category] += 1

    @property
    def total(self):
        return sum(self.counts.values())

    def fractions(self):
        """Category fractions over all loads (Tables 3-4 rows)."""
        total = max(1, self.total)
        return {category: count / total
                for category, count in self.counts.items()}

    def merge(self, other):
        for category, count in other.counts.items():
            self.counts[category] += count
        return self

    def to_payload(self):
        """JSON-safe dict for the disk-cache codec (see repro.cache)."""
        return dict(self.counts)

    @classmethod
    def from_payload(cls, payload):
        stats = cls()
        for category, count in payload.items():
            stats.counts[category] = int(count)
        return stats


#: ``SimResult`` fields holding one mechanism's stats record (None when
#: the run did not model the mechanism), with the record class.
MECHANISM_STATS = (("memdep", MemDepStats), ("dae", DAEStats),
                   ("value_spec", ValueSpecStats),
                   ("branch_spec", BranchSpecStats))


class SimResult:
    """Outcome of simulating one trace on one machine configuration."""

    __slots__ = ("config_name", "trace_name", "instructions", "cycles",
                 "loads", "collapse", "branch", "issue_width",
                 "window_size", "issue_cycles", "eliminated_positions",
                 "memdep", "dae", "value_spec", "branch_spec")

    def __init__(self, config, trace_name, instructions, cycles, loads,
                 collapse, branch, issue_cycles=None,
                 eliminated_positions=frozenset(), memdep=None,
                 dae=None, value_spec=None, branch_spec=None):
        self.config_name = config.name
        self.issue_width = config.issue_width
        self.window_size = config.window_size
        self.trace_name = trace_name
        self.instructions = instructions
        self.cycles = cycles
        self.loads = loads
        self.collapse = collapse
        self.branch = branch
        #: per-position issue cycle (eliminated instructions carry the
        #: cycle at which they were folded away); mainly for verification
        self.issue_cycles = issue_cycles
        #: trace positions removed by node elimination; their
        #: ``issue_cycles`` entries are fold-away cycles, not issue slots
        self.eliminated_positions = frozenset(eliminated_positions)
        #: MemDepStats when the run used realistic (mdpt) memory
        #: disambiguation; None under the paper's perfect model
        self.memdep = memdep
        #: DAEStats when the run decoupled access/execute streams
        #: (``config.dae`` with a DAEPlan); None otherwise
        self.dae = dae
        #: ValueSpecStats when the run used value speculation (configs
        #: I, J or the oracle ``value_spec=True``); None otherwise
        self.value_spec = value_spec
        #: BranchSpecStats when the run resolved load-driven exit
        #: branches early (config J with a BranchPlan); None otherwise
        self.branch_spec = branch_spec

    @property
    def ipc(self):
        if not self.cycles:
            return 0.0
        return self.instructions / self.cycles

    def speedup_over(self, baseline):
        """Speedup of this run versus ``baseline`` on the same trace."""
        if baseline.trace_name != self.trace_name:
            raise ValueError(
                "speedup compares runs of the same trace (%r vs %r)"
                % (self.trace_name, baseline.trace_name))
        if self.cycles == 0:
            return 1.0
        return baseline.cycles / self.cycles

    def to_payload(self):
        """JSON-safe dict capturing everything exhibits consume.

        The codec is lossless for every derived measure (IPC, speedups,
        load/branch fractions, collapse histograms); the one identity it
        drops is ``collapse.collapsed_positions`` membership, which is
        folded into a count exactly like :meth:`CollapseStats.merge`.
        """
        payload = {
            "config_name": self.config_name,
            "issue_width": self.issue_width,
            "window_size": self.window_size,
            "trace_name": self.trace_name,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "loads": self.loads.to_payload() if self.loads else None,
            "collapse": (self.collapse.to_payload()
                         if self.collapse is not None else None),
            "branch": (self.branch.to_payload()
                       if self.branch is not None else None),
            "issue_cycles": (list(self.issue_cycles)
                             if self.issue_cycles is not None else None),
            "eliminated_positions": sorted(self.eliminated_positions),
        }
        for field, _record in MECHANISM_STATS:
            stats = getattr(self, field)
            payload[field] = stats.to_payload() if stats is not None \
                else None
        return payload

    @classmethod
    def from_payload(cls, payload):
        from ..bpred.runner import BranchRunResult
        from ..collapse.stats import CollapseStats
        result = cls.__new__(cls)
        result.config_name = payload["config_name"]
        result.issue_width = payload["issue_width"]
        result.window_size = payload["window_size"]
        result.trace_name = payload["trace_name"]
        result.instructions = payload["instructions"]
        result.cycles = payload["cycles"]
        loads = payload.get("loads")
        result.loads = (LoadStats.from_payload(loads)
                        if loads is not None else None)
        collapse = payload.get("collapse")
        result.collapse = (CollapseStats.from_payload(collapse)
                           if collapse is not None else None)
        branch = payload.get("branch")
        result.branch = (BranchRunResult.from_payload(branch)
                         if branch is not None else None)
        issue_cycles = payload.get("issue_cycles")
        result.issue_cycles = (list(issue_cycles)
                               if issue_cycles is not None else None)
        result.eliminated_positions = frozenset(
            payload.get("eliminated_positions") or ())
        for field, record in MECHANISM_STATS:
            stats = payload.get(field)
            setattr(result, field, record.from_payload(stats)
                    if stats is not None else None)
        return result

    def __repr__(self):
        return ("SimResult(%s on %s: ipc=%.3f, cycles=%d)"
                % (self.config_name, self.trace_name, self.ipc,
                   self.cycles))
