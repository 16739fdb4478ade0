"""Finding and report containers for the static analyzer.

A :class:`Finding` is one diagnosed problem, located by source file and
line (the assembler threads line numbers onto every
:class:`~repro.isa.instruction.Instruction`, so findings on assembled
programs always point back at the ``.s`` source).  A
:class:`LintReport` collects the findings for one lint target plus the
analysis each registered pass published, and renders the findings in the
conventional ``file:line: severity: [check] message`` compiler format.
A :class:`CheckResult` is the outcome of one static-vs-dynamic
``*_cross_check``.
"""

SEV_ERROR = "error"
SEV_WARNING = "warning"

#: relative tolerance of the checks' floating-point inequalities
_REL_TOL = 1e-9


class Finding:
    """One diagnosed problem in a program."""

    __slots__ = ("check", "message", "file", "line", "index", "severity")

    def __init__(self, check, message, file="<program>", line=None,
                 index=None, severity=SEV_ERROR):
        self.check = check
        self.message = message
        self.file = file
        self.line = line
        self.index = index          # instruction index, when applicable
        self.severity = severity

    @property
    def location(self):
        return "%s:%s" % (self.file, self.line if self.line is not None
                          else "?")

    def render(self):
        return "%s: %s: [%s] %s" % (self.location, self.severity,
                                    self.check, self.message)

    def sort_key(self):
        return (self.file,
                self.line if self.line is not None else 0,
                self.index if self.index is not None else 0,
                self.check)

    def __repr__(self):
        return "<Finding %s>" % (self.render(),)


class LintReport:
    """All findings for one lint target, plus analysis summaries."""

    def __init__(self, target, findings=None):
        self.target = target
        self.findings = sorted(findings or [], key=Finding.sort_key)
        #: pass name -> the analysis that pass published
        #: (repro.lint.registry.LintContext.publish)
        self.analyses = {}
        #: instruction / basic-block counts for the summary line
        self.instructions = 0
        self.blocks = 0

    def add(self, finding):
        self.findings.append(finding)
        self.findings.sort(key=Finding.sort_key)

    def extend(self, findings):
        self.findings.extend(findings)
        self.findings.sort(key=Finding.sort_key)

    @property
    def ok(self):
        return not any(f.severity == SEV_ERROR for f in self.findings)

    @property
    def errors(self):
        return [f for f in self.findings if f.severity == SEV_ERROR]

    def render(self):
        """One line per finding; a summary line when error-free.

        Warnings print *and* the clean summary follows — "clean" means
        no errors, matching the exit-code convention of ``repro lint``.
        """
        lines = [f.render() for f in self.findings]
        if self.ok:
            lines.append("%s: clean (%d instructions, %d blocks)" % (
                self.target, self.instructions, self.blocks))
        return "\n".join(lines)

    def __repr__(self):
        return "<LintReport %s: %d findings>" % (self.target,
                                                 len(self.findings))


class CheckResult:
    """Outcome of one ``*_cross_check``: the violated claims, worded for
    ``repro lint``, and the evidence a subclass records next to them."""

    __slots__ = ("violations",)

    def __init__(self):
        self.violations = []

    @property
    def ok(self):
        return not self.violations


__all__ = ["CheckResult", "Finding", "LintReport", "SEV_ERROR",
           "SEV_WARNING"]
