"""The structured report returned by ``Rumble.profile(query)``.

One report bundles the four views the Spark UI gives a query: the phase
timeline (span tree), per-operator row counts (metrics), shuffle volume,
and the stage/task event log — plus the query result itself, so
profiling a query never means running it twice.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.events import shuffle_totals, stage_tree
from repro.obs.tracing import Span

#: The compile/execute phases, in pipeline order (paper, Figure 10).
PHASES = (
    "lex", "parse", "static-analysis", "compile", "optimize", "execute",
)


class ProfileReport:
    """Everything one profiled query run observed."""

    def __init__(
        self,
        query: str,
        root_span: Span,
        metrics: Dict[str, Dict[str, object]],
        events: List[Dict[str, object]],
        items: Optional[list] = None,
        mode: str = "local",
    ):
        self.query = query
        self.root_span = root_span
        self.metrics = metrics
        self.events = events
        self.items = items or []
        #: "distributed" when the root iterator ran on the RDD/DataFrame
        #: path, "local" when it streamed through the pull API.
        self.mode = mode

    # -- Derived views -------------------------------------------------------
    @property
    def total_seconds(self) -> float:
        return self.root_span.duration

    @property
    def phases(self) -> Dict[str, float]:
        """Phase name -> seconds, in pipeline order, from the span tree.

        A phase a cache hit skipped is absent; one that opened more than
        once (``execute``: the result-cache fill, then the collect) is
        the sum of its spans."""
        named: Dict[str, float] = {}
        for child in self.root_span.children:
            named[child.name] = named.get(child.name, 0.0) + child.duration
        ordered = {name: named[name] for name in PHASES if name in named}
        for name, seconds in named.items():
            if name not in ordered:
                ordered[name] = seconds
        return ordered

    def operator_rows(self) -> Dict[str, int]:
        """Rendered counter name -> rows, for every row/tuple counter."""
        counters = self.metrics.get("counters", {})
        return {
            name: value for name, value in counters.items()
            if name.startswith(("rumble.clause.rows",
                                "rumble.clause.tuples"))
        }

    def shuffle(self) -> Dict[str, int]:
        return shuffle_totals(self.events)

    def stages(self) -> List[Dict[str, object]]:
        return stage_tree(self.events)

    def counter(self, name: str, **labels) -> int:
        from repro.obs.metrics import render_name

        return self.metrics.get("counters", {}).get(
            render_name(name, labels), 0
        )

    def to_dict(self) -> Dict[str, object]:
        """A JSON-able summary (used by the bench metrics sidecars)."""
        return {
            "query": self.query,
            "mode": self.mode,
            "total_seconds": self.total_seconds,
            "phases": self.phases,
            "metrics": self.metrics,
            "shuffle": self.shuffle(),
            "stages": [
                {k: v for k, v in stage.items() if k != "tasks"}
                for stage in self.stages()
            ],
            "spans": self.root_span.to_dict(),
        }

    # -- Rendering -----------------------------------------------------------
    def render(self) -> str:
        """The ``--profile`` table: phases, operators, shuffle, stages."""
        lines = ["== query profile ({} execution) ==".format(self.mode)]
        width = max(
            [len(name) for name in self.phases] + [len("total")] or [5]
        )
        for name, seconds in self.phases.items():
            lines.append("  {:<{w}}  {:>10.6f}s".format(
                name, seconds, w=width
            ))
        lines.append("  {:<{w}}  {:>10.6f}s".format(
            "total", self.total_seconds, w=width
        ))

        rows = self.operator_rows()
        if rows:
            lines.append("-- operators --")
            op_width = max(len(name) for name in rows)
            for name in sorted(rows):
                lines.append("  {:<{w}}  {:>8d} rows".format(
                    name, rows[name], w=op_width
                ))

        shuffle = self.shuffle()
        if shuffle["shuffles"]:
            lines.append("-- shuffle --")
            lines.append(
                "  {shuffles} shuffle(s), {records} record(s), "
                "{bytes} byte(s)".format(**shuffle)
            )

        stages = self.stages()
        if stages:
            lines.append("-- stages --")
            for stage in stages:
                lines.append(
                    "  stage {:>3}  {:<24}  {:>3} task(s)  {:.6f}s".format(
                        stage["stage_id"],
                        str(stage["label"])[:24],
                        len(stage["tasks"]),
                        stage.get("seconds") or 0.0,
                    )
                )

        cache_hits = self.counter("rumble.rdd.cache.hits")
        materializations = self.counter("rumble.rdd.cache.materializations")
        if cache_hits or materializations:
            lines.append("-- cache --")
            lines.append("  {} materialization(s), {} partition hit(s)".format(
                materializations, cache_hits
            ))

        for section, prefix in (
            ("adaptive", "rumble.adaptive."),
            ("memory", "rumble.memory."),
        ):
            counters = self.metrics.get("counters", {})
            found = {
                name[len(prefix):]: value
                for name, value in counters.items()
                if name.startswith(prefix) and value
            }
            if found:
                lines.append("-- {} --".format(section))
                lines.append("  " + ", ".join(
                    "{}={}".format(name, found[name])
                    for name in sorted(found)
                ))
        return "\n".join(lines)
