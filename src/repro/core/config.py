"""Machine configurations (paper Section 4) on a declarative registry.

The lettered configurations studied:

- **A**: base superscalar (windowed issue, real branch prediction, ideal
  renaming, perfect disambiguation);
- **B**: A + real (stride/confidence) load-speculation;
- **C**: A + dependence collapsing;
- **D**: A + collapsing + real load-speculation;
- **E**: A + collapsing + ideal load-speculation;
- **F**: A with realistic memory disambiguation — loads issue
  speculatively past unresolved stores under an MDPT store-set predictor
  (Moshovos et al., ISCA 1997) and pay a squash/re-execute penalty on a
  memory-order violation;
- **G**: F + dependence collapsing;
- **H**: A + decoupled access/execute streams — statically-clean inner
  loops (``repro.lint.dae``) run their access slice ahead of the main
  window through bounded FIFO value queues;
- **I**: C + real result-value speculation — consumers of a load whose
  stride value prediction is confident issue without waiting for it;
  a misprediction squashes and replays the speculated consumers
  (``repro.vpred``; the static side is ``repro.lint.valueflow``);
- **J**: I + load-driven exit-branch prediction — loop-exit branches
  whose compare cone is fed by a stride/affine-classified load
  (``repro.lint.branchflow``'s :class:`BranchPlan`) resolve at the
  governing load's address-generation time when its value prediction
  is confident and correct, waiving the misprediction fetch fence.

Each letter is one :class:`ConfigSpec` entry in a registry; adding a
configuration is a single :func:`register_config` call — the experiment
runner, figures and report all iterate :func:`config_letters` instead of
hardcoding the letter set.

For every configuration the window is twice the issue width unless
overridden.  Issue widths studied: 4, 8, 16, 32 and 2048 ("2k").
"""

from ..collapse.rules import CollapseRules
from ..errors import ConfigError

LOAD_SPEC_NONE = "none"
LOAD_SPEC_REAL = "real"
LOAD_SPEC_IDEAL = "ideal"

#: Memory-disambiguation modes: ``perfect`` is the paper's model (a load
#: waits exactly for the last prior store to its word); ``mdpt`` issues
#: loads speculatively under a memory-dependence predictor and recovers
#: from violations by replaying the load's forward slice.
MEM_SPEC_PERFECT = "perfect"
MEM_SPEC_MDPT = "mdpt"

_MEM_SPECS = (MEM_SPEC_PERFECT, MEM_SPEC_MDPT)

#: Value-speculation modes.  ``False`` disables; ``VALUE_SPEC_REPLAY``
#: is config I's realistic mode: consumers issue on a confident
#: prediction and a wrong one squashes and replays them after the load
#: verifies; ``True`` is the oracle extension, the same mode fed only
#: the correct predictions (wrong ones wait — no misprediction cost).
VALUE_SPEC_REPLAY = "replay"

_VALUE_SPECS = (False, True, VALUE_SPEC_REPLAY)

#: Issue widths used throughout the paper's evaluation.
PAPER_ISSUE_WIDTHS = (4, 8, 16, 32, 2048)

#: Labels the paper uses for the widths in figures.
WIDTH_LABELS = {4: "4", 8: "8", 16: "16", 32: "32", 2048: "2k"}


class MachineConfig:
    """One simulated machine."""

    __slots__ = ("name", "issue_width", "window_size", "collapse_rules",
                 "load_spec", "node_elimination", "value_spec",
                 "fetch_taken_break", "mem_spec", "dae", "mdpt_entries",
                 "mdpt_store_set", "branch_spec")

    def __init__(self, issue_width, window_size=None, collapse_rules=None,
                 load_spec=LOAD_SPEC_NONE, node_elimination=False,
                 value_spec=False, fetch_taken_break=False,
                 mem_spec=MEM_SPEC_PERFECT, dae=False, mdpt_entries=None,
                 mdpt_store_set=None, branch_spec=False, name=None):
        if issue_width < 1:
            raise ConfigError("issue width must be positive")
        if window_size is None:
            window_size = 2 * issue_width
        if window_size < issue_width:
            raise ConfigError("window smaller than issue width")
        if load_spec not in (LOAD_SPEC_NONE, LOAD_SPEC_REAL,
                             LOAD_SPEC_IDEAL):
            raise ConfigError("unknown load_spec %r" % (load_spec,))
        if mem_spec not in _MEM_SPECS:
            raise ConfigError("unknown mem_spec %r (allowed: %s)"
                              % (mem_spec, ", ".join(_MEM_SPECS)))
        if value_spec not in _VALUE_SPECS:
            raise ConfigError(
                "unknown value_spec %r (allowed: False, True, %r)"
                % (value_spec, VALUE_SPEC_REPLAY))
        if value_spec and mem_spec != MEM_SPEC_PERFECT:
            raise ConfigError(
                "value_spec=%r requires perfect memory disambiguation: "
                "MDPT replay and value-speculation replay would race on "
                "the same recovery bookkeeping" % (value_spec,))
        if node_elimination and collapse_rules is None:
            raise ConfigError(
                "node elimination is a collapsing extension: it needs "
                "collapse_rules (Figure 1.f eliminates collapsed "
                "producers)")
        if dae and mem_spec != MEM_SPEC_PERFECT:
            raise ConfigError(
                "dae requires perfect memory disambiguation: MDPT "
                "replay and access-window bypass accounting conflict")
        if dae and value_spec:
            raise ConfigError(
                "dae is incompatible with value speculation: a "
                "predicted consumer could issue before its queue "
                "entry's load completes")
        if branch_spec and value_spec != VALUE_SPEC_REPLAY:
            raise ConfigError(
                "branch_spec requires value_spec=%r: a load-driven exit "
                "branch resolves early exactly when its governing "
                "load's value prediction is confident and correct, "
                "which only the replay value-speculation pass tracks"
                % (VALUE_SPEC_REPLAY,))
        if mdpt_entries is not None or mdpt_store_set is not None:
            if mem_spec != MEM_SPEC_MDPT:
                raise ConfigError(
                    "mdpt_entries/mdpt_store_set only apply to "
                    "mem_spec=%r" % (MEM_SPEC_MDPT,))
            from ..memdep.mdpt import DEFAULT_ENTRIES, DEFAULT_STORE_SET
            if mdpt_entries is not None:
                if mdpt_entries < 1 or mdpt_entries & (mdpt_entries - 1):
                    raise ConfigError(
                        "mdpt_entries must be a power of two, got %r"
                        % (mdpt_entries,))
                if mdpt_entries == DEFAULT_ENTRIES:
                    mdpt_entries = None     # keep cache keys stable
            if mdpt_store_set is not None:
                if mdpt_store_set < 1:
                    raise ConfigError("mdpt_store_set must be positive")
                if mdpt_store_set == DEFAULT_STORE_SET:
                    mdpt_store_set = None
        self.issue_width = issue_width
        self.window_size = window_size
        self.collapse_rules = collapse_rules
        self.load_spec = load_spec
        self.mem_spec = mem_spec
        self.node_elimination = node_elimination
        self.value_spec = value_spec
        #: When set, fetch stops at each *taken* control transfer for the
        #: rest of the cycle (single-fetch-block front end), an
        #: infrastructure-realism ablation; the paper's model fetches
        #: across taken branches freely.
        self.fetch_taken_break = fetch_taken_break
        #: decoupled access/execute streams (configuration H); the
        #: scheduler additionally needs a ``DAEPlan`` for the workload
        #: (``repro.workloads.cached_dae_plan``) to actually decouple.
        self.dae = dae
        #: load-driven exit-branch prediction (configuration J); the
        #: scheduler additionally needs a ``BranchPlan`` for the
        #: workload (``repro.workloads.cached_branch_plan``) to waive
        #: any fences.
        self.branch_spec = branch_spec
        #: MDPT sizing overrides (None = the module defaults); kept as
        #: None when explicitly set to the defaults so cache
        #: fingerprints of default-sized runs stay identical.
        self.mdpt_entries = mdpt_entries
        self.mdpt_store_set = mdpt_store_set
        self.name = name or self._default_name()

    def _default_name(self):
        return "+".join(["w%d" % self.issue_width] + self.features())

    def features(self):
        """Short names of the mechanisms this machine adds to the base
        machine, in a fixed order (``["collapse", "lspec-real"]`` for
        configuration D); the default name is the width plus these."""
        parts = []
        if self.collapse_rules is not None:
            parts.append("collapse")
        if self.load_spec != LOAD_SPEC_NONE:
            parts.append("lspec-%s" % self.load_spec)
        if self.mem_spec != MEM_SPEC_PERFECT:
            parts.append("mspec-%s" % self.mem_spec)
        if self.mdpt_entries is not None or self.mdpt_store_set is not None:
            parts.append("mdpt%s-%s" % (self.mdpt_entries or "d",
                                        self.mdpt_store_set or "d"))
        if self.dae:
            parts.append("dae")
        if self.node_elimination:
            parts.append("elim")
        if self.value_spec:
            parts.append("vspec" if self.value_spec is True
                         else "vspec-%s" % (self.value_spec,))
        if self.branch_spec:
            parts.append("bspec")
        return parts

    @property
    def collapsing(self):
        return self.collapse_rules is not None

    def fingerprint(self):
        """Stable JSON-safe description of everything that affects timing
        (the disk cache keys results on it)."""
        rules = self.collapse_rules
        print_ = {
            "issue_width": self.issue_width,
            "window_size": self.window_size,
            "load_spec": self.load_spec,
            "mem_spec": self.mem_spec,
            "node_elimination": self.node_elimination,
            "value_spec": self.value_spec,
            "fetch_taken_break": self.fetch_taken_break,
            "collapse": rules.fingerprint() if rules is not None else None,
        }
        # Conditional keys keep pre-existing cache entries (A-G) valid.
        if self.dae:
            print_["dae"] = True
        if self.mdpt_entries is not None or self.mdpt_store_set is not None:
            print_["mdpt"] = [self.mdpt_entries, self.mdpt_store_set]
        if self.branch_spec:
            print_["branch_spec"] = True
        return print_

    def width_label(self):
        return WIDTH_LABELS.get(self.issue_width, str(self.issue_width))

    def __repr__(self):
        return ("MachineConfig(%s: width=%d, window=%d, collapse=%r, "
                "load_spec=%s, mem_spec=%s)") % (
                    self.name, self.issue_width, self.window_size,
                    self.collapse_rules, self.load_spec, self.mem_spec)


# ----------------------------------------------------------------------
# Declarative configuration registry.

#: Knob names a :class:`ConfigSpec` may set.  ``collapse`` is a boolean
#: that expands to ``CollapseRules.paper()`` at build time (so every
#: :class:`MachineConfig` gets a fresh rules object); everything else is
#: forwarded to :class:`MachineConfig` verbatim.
_SPEC_KNOBS = frozenset((
    "collapse", "load_spec", "mem_spec", "node_elimination", "value_spec",
    "fetch_taken_break", "dae", "branch_spec",
))


class ConfigSpec:
    """Declarative description of one lettered paper configuration."""

    __slots__ = ("letter", "title", "knobs")

    def __init__(self, letter, title, knobs):
        self.letter = letter
        self.title = title
        self.knobs = dict(knobs)

    def build(self, issue_width, rules=None, **overrides):
        """Instantiate a :class:`MachineConfig` at ``issue_width``.

        ``rules`` substitutes the collapse-rule set for collapsing
        configurations (and enables collapsing when given to a
        non-collapsing one); other keyword arguments override
        :class:`MachineConfig` parameters such as ``window_size``.
        """
        kwargs = {}
        if self.knobs.get("collapse"):
            kwargs["collapse_rules"] = rules if rules is not None \
                else CollapseRules.paper()
        elif rules is not None:
            kwargs["collapse_rules"] = rules
        for knob, value in self.knobs.items():
            if knob != "collapse":
                kwargs[knob] = value
        kwargs.update(overrides)
        kwargs.setdefault("name", "%s/w%d" % (self.letter, issue_width))
        return MachineConfig(issue_width, **kwargs)

    def __repr__(self):
        return "ConfigSpec(%s: %s)" % (self.letter, self.title)


_REGISTRY = {}


def register_config(letter, title, **knobs):
    """Register configuration ``letter`` (a single letter, case folded to
    upper) built from the given knobs; returns the :class:`ConfigSpec`.

    Adding a configuration here is the *only* edit needed for it to show
    up in the experiment sweep, the IPC/speedup figures and the report.
    """
    letter = str(letter).upper()
    if len(letter) != 1 or not letter.isalpha():
        raise ConfigError("config letter must be a single letter, got %r"
                          % (letter,))
    if letter in _REGISTRY:
        raise ConfigError("configuration %r is already registered" % letter)
    unknown = sorted(set(knobs) - _SPEC_KNOBS)
    if unknown:
        raise ConfigError("unknown config knob(s) %s (allowed: %s)"
                          % (", ".join(unknown),
                             ", ".join(sorted(_SPEC_KNOBS))))
    spec = ConfigSpec(letter, title, knobs)
    spec.build(4)  # validate knob values eagerly
    _REGISTRY[letter] = spec
    return spec


def unregister_config(letter):
    """Remove a registered configuration (test support)."""
    _REGISTRY.pop(str(letter).upper(), None)


def config_letters():
    """Registered configuration letters, in registration order."""
    return tuple(_REGISTRY)


def config_specs():
    """Registered :class:`ConfigSpec` objects, in registration order."""
    return tuple(_REGISTRY.values())


def get_config_spec(letter):
    """The :class:`ConfigSpec` for ``letter``; raises ``ConfigError``."""
    spec = _REGISTRY.get(str(letter).upper())
    if spec is None:
        raise ConfigError("unknown configuration letter %r (registered: %s)"
                          % (letter, ", ".join(_REGISTRY)))
    return spec


def paper_config(letter, issue_width, **kwargs):
    """Build configuration ``letter`` at ``issue_width`` via the registry."""
    return get_config_spec(letter).build(issue_width, **kwargs)


register_config("A", "base superscalar")
register_config("B", "A + real load-speculation", load_spec=LOAD_SPEC_REAL)
register_config("C", "A + dependence collapsing", collapse=True)
register_config("D", "C + real load-speculation", collapse=True,
                load_spec=LOAD_SPEC_REAL)
register_config("E", "C + ideal load-speculation", collapse=True,
                load_spec=LOAD_SPEC_IDEAL)
register_config("F", "A with MDPT store-set memory disambiguation",
                mem_spec=MEM_SPEC_MDPT)
register_config("G", "F + dependence collapsing", collapse=True,
                mem_spec=MEM_SPEC_MDPT)
register_config("H", "A + decoupled access/execute streams", dae=True)
register_config("I", "C + real value speculation (squash/replay)",
                collapse=True, value_spec=VALUE_SPEC_REPLAY)
register_config("J", "I + load-driven exit-branch prediction",
                collapse=True, value_spec=VALUE_SPEC_REPLAY,
                branch_spec=True)
