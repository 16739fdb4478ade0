"""Declarative lint-pass registry.

Mirrors :func:`repro.core.config.register_config`: a pass registers
itself once with :func:`register_lint_pass` and every consumer iterates
:func:`lint_passes` — the driver (:func:`repro.lint.analyzer
.lint_program`) runs the passes, ``repro lint`` builds its flags,
tables, checks and ``--list`` from them, and the report's check
sections run the same checks — so a new pass reaches all of them
structurally, with no hand-maintained call list to forget to extend.

A pass is a callable ``fn(ctx)`` receiving a :class:`LintContext`; it
returns an iterable of :class:`~repro.lint.findings.Finding` (or
``None``) and publishes its analysis object once, under its own name,
with :meth:`LintContext.publish`.  Later passes, tables and checks read
it from ``LintReport.analyses`` (e.g. the address-classification pass
publishes ``"addr-class"``, which the recurrence pass consumes, whose
``"recurrence"`` analysis in turn feeds the DAE slicer).

A pass may declare a :class:`LintTable` (the ``repro lint`` flag that
prints its analysis's ``summary_rows()``) and a :class:`LintCheck` (the
flag that proves the analysis against dynamic evidence).
"""

from ..metrics import render_table


class LintContext:
    """Everything one lint run hands to its passes."""

    __slots__ = ("program", "cfg", "file", "report", "current")

    def __init__(self, program, cfg, file, report):
        self.program = program
        self.cfg = cfg
        self.file = file
        self.report = report
        #: name of the pass being run (set by the driver)
        self.current = None

    def publish(self, analysis):
        """Publish the running pass's analysis under the pass's name."""
        self.report.analyses[self.current] = analysis
        return analysis


def _dest(flag):
    """The argparse attribute of a ``--long-flag``."""
    return flag.lstrip("-").replace("-", "_")


class LintTable:
    """A pass's ``repro lint`` table.

    ``flag`` prints the table: the analysis's ``summary_rows()`` under
    ``headers`` and ``"<title>: <target>"``.  ``footer(analysis)``
    returns a line printed after it; ``empty`` is printed instead of a
    table without rows.
    """

    __slots__ = ("flag", "help", "headers", "title", "footer", "empty")

    def __init__(self, flag, help, headers, title, footer=None,
                 empty=None):
        self.flag = flag
        self.help = help
        self.headers = list(headers)
        self.title = title
        self.footer = footer
        self.empty = empty

    @property
    def dest(self):
        return _dest(self.flag)

    def lines(self, analysis, target):
        rows = analysis.summary_rows()
        lines = []
        if rows:
            lines.append(render_table(
                self.headers, [list(row) for row in rows],
                title="%s: %s" % (self.title, target)))
        elif self.empty is not None:
            lines.append(self.empty)
        if self.footer is not None:
            lines.append(self.footer(analysis))
        return lines


class LintCheck:
    """A pass's static-vs-dynamic check.

    ``run(report, runner, name, width)`` gathers the evidence for
    workload ``name`` — its trace and simulated cells at issue width
    ``width`` come from ``runner``, an
    :class:`~repro.experiments.runner.ExperimentRunner` — and returns
    the result of the pass's ``*_cross_check``: an object with ``ok``
    and a ``violations`` list.  ``lines(name, check, width)`` renders
    its summary; ``repro lint`` prints each violation after it.
    ``flag`` runs the check in ``repro lint``, at ``width`` (``None``
    for a check that simulates no cell).
    """

    __slots__ = ("flag", "help", "width", "run", "lines")

    def __init__(self, flag, help, width, run, lines):
        self.flag = flag
        self.help = help
        self.width = width
        self.run = run
        self.lines = lines

    @property
    def dest(self):
        return _dest(self.flag)


class LintPass:
    """One registered pass: metadata, the callable, and its optional
    table and check declarations."""

    __slots__ = ("name", "title", "order", "fn", "table", "check")

    def __init__(self, name, title, order, fn, table=None, check=None):
        self.name = name
        self.title = title
        self.order = order
        self.fn = fn
        self.table = table
        self.check = check

    @property
    def flags(self):
        """The ``repro lint`` switches the pass backs (table, check)."""
        return tuple(decl.flag for decl in (self.table, self.check)
                     if decl is not None)

    def run(self, ctx):
        ctx.current = self.name
        return self.fn(ctx)

    def __repr__(self):
        return "<LintPass %s (order %d)>" % (self.name, self.order)


#: name -> LintPass; mutated only through (un)register_lint_pass
LINT_PASSES = {}


def register_lint_pass(name, title, order=100, table=None, check=None):
    """Decorator registering ``fn(ctx)`` as lint pass ``name``.

    ``order`` fixes the execution sequence (ties break on name), which
    matters for passes consuming analyses earlier ones published, and
    the order of ``repro lint``'s tables and checks.  ``table`` and
    ``check`` are the pass's optional :class:`LintTable` and
    :class:`LintCheck`.  Registering a taken name raises ``ValueError``
    — redefine a pass by unregistering it first.
    """
    def decorate(fn):
        if name in LINT_PASSES:
            raise ValueError("lint pass %r is already registered" % (name,))
        LINT_PASSES[name] = LintPass(name, title, order, fn, table=table,
                                     check=check)
        return fn
    return decorate


def unregister_lint_pass(name):
    """Remove a registered pass (primarily for tests)."""
    del LINT_PASSES[name]


def lint_passes():
    """All registered passes in execution order."""
    return sorted(LINT_PASSES.values(),
                  key=lambda p: (p.order, p.name))


__all__ = ["LintCheck", "LintContext", "LintPass", "LintTable",
           "LINT_PASSES", "register_lint_pass", "unregister_lint_pass",
           "lint_passes"]
