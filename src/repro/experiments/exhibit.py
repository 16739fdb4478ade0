"""Common container for reproduced tables/figures, and their registry.

Each exhibit keeps structured data (headers + rows) for tests and the
EXPERIMENTS.md generator, and renders to monospace text like the paper's
tables / figure series.

Exhibit builders register themselves with :func:`register_exhibit`; the
report generator iterates :func:`all_exhibits` instead of hand-listing
builder functions, and derives its simulation prefetch set from the
per-exhibit configuration/width requirements
(:func:`exhibit_requirements`).
"""

from ..metrics.tables import render_table

#: ``letters`` sentinel: the exhibit sweeps every configuration in the
#: live registry (:func:`repro.core.config.config_letters`), so a config
#: registered later shows up without touching the exhibit.
REGISTRY_LETTERS = "registry"


class Exhibit:
    """One reproduced table or figure."""

    def __init__(self, key, title, headers, rows, note="", precision=2):
        self.key = key
        self.title = title
        self.headers = list(headers)
        self.rows = [list(row) for row in rows]
        self.note = note
        self.precision = precision

    def column(self, header):
        """All values of one column, by header name."""
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def row_map(self):
        """Mapping first-column value -> row (for tests)."""
        return {row[0]: row for row in self.rows}

    def render(self):
        text = render_table(self.headers, self.rows,
                            title="%s — %s" % (self.key, self.title),
                            precision=self.precision)
        if self.note:
            text += "\n(%s)" % (self.note,)
        return text

    def __repr__(self):
        return "<Exhibit %s: %d rows>" % (self.key, len(self.rows))


class ExhibitSpec:
    """Registration record for one exhibit builder.

    ``letters`` is the tuple of configuration letters the exhibit
    simulates (:data:`REGISTRY_LETTERS` = every registered config);
    ``widths`` restricts the issue widths it needs (``None`` = all of
    the runner's widths).  Together they let the report prefetch exactly
    the cells the registered exhibits will ask for.
    """

    __slots__ = ("key", "order", "builder", "letters", "widths", "note")

    def __init__(self, key, order, builder, letters, widths, note):
        self.key = key
        self.order = order
        self.builder = builder
        self.letters = letters
        self.widths = None if widths is None else tuple(widths)
        self.note = note

    def config_letters(self):
        """Concrete letters this exhibit needs, resolved at call time."""
        if self.letters == REGISTRY_LETTERS:
            from ..core.config import config_letters
            return config_letters()
        return tuple(self.letters)

    def build(self, runner):
        return self.builder(runner)

    def __repr__(self):
        return "<ExhibitSpec %s order=%d>" % (self.key, self.order)


_REGISTRY = {}


def register_exhibit(key, order, letters=REGISTRY_LETTERS, widths=None,
                     note=""):
    """Decorator: publish ``fn(runner) -> Exhibit`` under ``key``.

    ``order`` positions the exhibit in :func:`all_exhibits` (and hence
    in the generated report); ``note`` is the paper-shape annotation
    printed above the exhibit.  Registering an existing key raises.
    """
    def decorate(fn):
        if key in _REGISTRY:
            raise ValueError("exhibit %r is already registered" % (key,))
        _REGISTRY[key] = ExhibitSpec(key, order, fn, letters, widths,
                                     note)
        return fn
    return decorate


def all_exhibits():
    """Registered exhibit specs, in report order."""
    return tuple(sorted(_REGISTRY.values(),
                        key=lambda spec: (spec.order, spec.key)))


def exhibit_requirements():
    """Simulation demand of the registered exhibits.

    Returns ``(letters, widths)`` pairs — one per distinct width
    restriction, letters unioned across its exhibits — ready to hand to
    :meth:`ExperimentRunner.prefetch`.
    """
    groups = {}
    for spec in all_exhibits():
        groups.setdefault(spec.widths, set()).update(
            spec.config_letters())
    return [(tuple(sorted(letters)), widths)
            for widths, letters in sorted(
                groups.items(), key=lambda item: item[0] is not None)]
