"""The interactive Rumble shell (paper, Section 5.4).

The shell runs as a single "Spark application": one engine, one substrate
session, set up once at launch, so executors are reused across queries.
Each query's output is collected up to the configured maximum number of
items and printed.

Usable programmatically (``RumbleShell().execute(...)``) and as a REPL
(``python -m repro.core.shell`` or ``examples/rumble_shell.py``).
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Iterable, List, Optional, TextIO

from repro.core.config import RumbleConfig
from repro.core.engine import Rumble
from repro.jsoniq.errors import JsoniqException

BANNER = """\
Rumble (reproduction) — JSONiq on a Spark substrate
Type a JSONiq query, end it with ';' on its own line. Commands:
  :help      this message
  :cap N     set the materialization cap
  :profile   toggle per-query profiling (phases, operators, shuffle)
  :lint      toggle linting (diagnostics precede each query's results)
  :codegen   toggle whole-stage code generation for this session
  :quit      leave the shell
"""

PROMPT = "rumble$ "
CONTINUATION = "      > "


class RumbleShell:
    """A line-oriented JSONiq shell around one engine instance."""

    def __init__(self, engine: Optional[Rumble] = None,
                 output: Optional[TextIO] = None):
        self.engine = engine or Rumble(config=RumbleConfig(
            materialization_cap=20, warn_on_cap=True,
        ))
        self.output = output or sys.stdout
        self.profiling = False
        self.linting = False

    # -- One query ------------------------------------------------------------
    def execute(self, query_text: str) -> List[str]:
        """Run one query; returns the serialized items (capped).

        With profiling toggled on (``:profile``) the query runs under the
        profiler and the breakdown table follows the items.  With linting
        on (``:lint``) diagnostics precede the results, and a query with
        error-severity diagnostics is not executed at all.
        """
        if self.linting:
            from repro.jsoniq.analysis.diagnostics import ERROR

            diagnostics = self.engine.lint(query_text)
            rendered = [
                "lint: " + diagnostic.render()
                for diagnostic in diagnostics
            ]
            if any(d.severity == ERROR for d in diagnostics):
                return rendered
            prefix = rendered
        else:
            prefix = []
        if self.profiling:
            report = self.engine.profile(query_text)
            rendered = [item.serialize() for item in report.items]
            rendered.extend(report.render().splitlines())
            return prefix + rendered
        items, _ = self.engine.query(query_text).collect_capped()
        return prefix + [item.serialize() for item in items]

    def _print(self, text: str) -> None:
        self.output.write(text)
        self.output.write("\n")

    # -- Command handling ----------------------------------------------------------
    def handle_command(self, line: str) -> bool:
        """Process a ``:command``; returns False when the shell should exit."""
        parts = line.split()
        command = parts[0]
        if command in (":quit", ":q", ":exit"):
            return False
        if command == ":help":
            self._print(BANNER)
        elif command == ":cap" and len(parts) == 2 and parts[1].isdigit():
            self.engine.config.materialization_cap = int(parts[1])
            self._print("materialization cap set to " + parts[1])
        elif command == ":profile":
            self.profiling = not self.profiling
            self._print("profiling {}".format(
                "on" if self.profiling else "off"
            ))
        elif command == ":lint":
            self.linting = not self.linting
            self._print("linting {}".format(
                "on" if self.linting else "off"
            ))
        elif command == ":codegen":
            # Flip the *resolved* flag; the flags object keeps codegen
            # off while columnar (or pushdown) is, and says so.
            runtime = self.engine.runtime
            wanted = not runtime.flags.codegen
            runtime.flags = dataclasses.replace(
                runtime.flags, codegen=wanted
            )
            if runtime.flags.codegen == wanted:
                self._print("codegen " + ("on" if wanted else "off"))
            else:
                self._print("codegen off (requires pushdown and columnar)")
        else:
            self._print("unknown command: " + line)
        return True

    # -- REPL loop --------------------------------------------------------------------
    def run(self, lines: Iterable[str], interactive: bool = False) -> None:
        """Feed lines (from stdin or a script) into the shell."""
        self._print(BANNER)
        buffer: List[str] = []
        for line in lines:
            stripped = line.strip()
            if not buffer and stripped.startswith(":"):
                if not self.handle_command(stripped):
                    return
                continue
            buffer.append(line.rstrip("\n"))
            if stripped.endswith(";"):
                query = "\n".join(buffer)
                # A trailing ';' ends the query; prolog ';' stay inside.
                query = query.rstrip()[:-1]
                buffer = []
                if not query.strip():
                    continue
                try:
                    for rendered in self.execute(query):
                        self._print(rendered)
                except JsoniqException as error:
                    self._print("error: {}".format(error))


def main() -> None:  # pragma: no cover - interactive entry point
    RumbleShell().run(sys.stdin, interactive=True)


if __name__ == "__main__":  # pragma: no cover
    main()
