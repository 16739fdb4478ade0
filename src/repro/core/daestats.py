"""Queue and stream accounting for decoupled access/execute runs.

Configuration H (``MachineConfig.dae``) splits each statically-clean
innermost loop into an access stream (address computation + loads) that
may run ahead of the main window, and an execute stream that consumes
load values through bounded FIFO queues.  :class:`DAEStats` records, per
decoupled loop, how far that decoupling actually got: queue traffic,
peak occupancy, queue-full fallbacks, and the dynamic chase dependences
(load-derived values feeding an access-slice consumer in the same loop
run) that the static slicer promises are impossible for clean loops.

The numbers here are the dynamic half of the ``dae_cross_check`` proof
in :mod:`repro.lint.dae`; keeping the container in ``core`` (it has no
lint dependencies) lets the scheduler and result codec import it
directly.
"""

from ..counters import CounterRecord


class DAELoopStats(CounterRecord):
    """Per-loop (keyed by header instruction index) DAE counters:
    ``runs`` (maximal body-instruction stretches observed), ``enqueued``
    (boundary-load values pushed into the FIFO queue), ``popped``
    (entries consumed by the execute slice or reclaimed at architectural
    overwrite), ``peak`` (queue occupancy, merged by maximum),
    ``full_stalls`` (bypasses denied by a full queue), ``chase_deps``
    (arcs from an in-run body load into an access-slice consumer: zero
    for statically-clean loops, the cross-check) and ``chase_stalls``
    (chase arcs whose producer had not completed at consumer entry).
    """

    __slots__ = ("runs", "enqueued", "popped", "peak", "full_stalls",
                 "chase_deps", "chase_stalls")
    MAXIMA = ("peak",)


class DAEStats(CounterRecord):
    """All DAE accounting of one simulation (``SimResult.dae``):
    ``bypassed`` (instructions admitted through the access window),
    ``degraded`` (bypass-eligible instructions that fell back to the
    main window because the access window was full) and ``loops``
    (header instruction index -> :class:`DAELoopStats`).
    """

    __slots__ = ("bypassed", "degraded", "loops")
    EXTRA = ("loops",)

    def __init__(self):
        super().__init__()
        self.loops = {}

    def loop(self, header):
        stats = self.loops.get(header)
        if stats is None:
            stats = self.loops[header] = DAELoopStats()
        return stats

    # -- suite-level aggregates (exhibit columns) ----------------------

    @property
    def enqueued(self):
        return sum(s.enqueued for s in self.loops.values())

    @property
    def popped(self):
        return sum(s.popped for s in self.loops.values())

    @property
    def peak(self):
        return max((s.peak for s in self.loops.values()), default=0)

    @property
    def full_stalls(self):
        return sum(s.full_stalls for s in self.loops.values())

    @property
    def chase_deps(self):
        return sum(s.chase_deps for s in self.loops.values())

    def merge(self, other):
        super().merge(other)
        for header, stats in other.loops.items():
            self.loop(header).merge(stats)
        return self

    def to_payload(self):
        payload = super().to_payload()
        payload["loops"] = {str(header): stats.to_payload()
                            for header, stats in sorted(self.loops.items())}
        return payload

    @classmethod
    def from_payload(cls, payload):
        stats = super().from_payload(payload)
        for header, loop_payload in (payload.get("loops") or {}).items():
            stats.loops[int(header)] = \
                DAELoopStats.from_payload(loop_payload)
        return stats


__all__ = ["DAELoopStats", "DAEStats"]
