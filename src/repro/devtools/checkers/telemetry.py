"""Telemetry-discipline checkers (FRQ-T5xx).

* ``FRQ-T501`` — raw wall-clock reads (``time.time``, ``perf_counter``,
  ``time.monotonic``, ``datetime.now``) in the pipeline packages
  (``core``, ``cloud``, ``runtime``).  All timestamps there must come
  from the telemetry clock (``repro.telemetry.clock.WALL_CLOCK`` or the
  per-run :class:`~repro.telemetry.Telemetry` facade) so instrumented
  runs can swap in the simulated clock and so spans and histograms share
  one time base.  ``time.sleep`` is a delay, not a clock read, and is
  not flagged.
* ``FRQ-T502`` — ``print()`` in library code.  Operational output
  belongs in telemetry (counters, spans, exporters), not on stdout;
  stray prints corrupt the report CLI's and the benchmarks' machine
  output.  CLI entry points (``cli.py``, ``__main__.py``, the report
  CLI) and devtools are exempt.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.devtools.astutil import call_name
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.registry import Checker, ModuleInfo, register

#: Wall-clock reads that bypass the telemetry clock.
_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "datetime.now",
    "datetime.datetime.now",
    "datetime.utcnow",
    "datetime.datetime.utcnow",
}

#: Modules that legitimately talk to a human on stdout.
_CLI_MODULES = {"cli.py", "__main__.py", "report.py"}


@register
class TelemetryChecker(Checker):
    """Keep the pipeline on the telemetry clock and off stdout."""

    name = "telemetry"
    codes = {
        "FRQ-T501": "raw wall-clock read bypassing the telemetry clock",
        "FRQ-T502": "print() in library code",
    }

    def check(self, module: ModuleInfo) -> Iterable[Diagnostic]:
        if module.in_package("core", "cloud", "runtime"):
            yield from self._check_clock_reads(module)
        yield from self._check_prints(module)

    # -- FRQ-T501 ----------------------------------------------------------

    def _check_clock_reads(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        for node in module.index.nodes(ast.Call):
            name = call_name(node)
            if name in _CLOCK_CALLS:
                yield self.diagnostic(
                    module,
                    node,
                    "FRQ-T501",
                    f"{name}() bypasses the telemetry clock — read "
                    f"WALL_CLOCK.now() (or telemetry.now()) so simulated "
                    f"and wall time stay swappable",
                )

    # -- FRQ-T502 ----------------------------------------------------------

    def _check_prints(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        parts = module.package_parts
        if not parts or parts[-1] in _CLI_MODULES:
            return
        if module.in_package("devtools"):
            return
        for node in module.index.nodes(ast.Call):
            if call_name(node) == "print":
                yield self.diagnostic(
                    module,
                    node,
                    "FRQ-T502",
                    "print() in library code — emit a telemetry metric or "
                    "return the text; stdout belongs to the CLIs",
                )
