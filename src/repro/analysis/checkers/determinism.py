"""RPA1xx — determinism: RNG and wall-clock hygiene.

``runtime.parallel_map`` promises bit-for-bit identical runs at any
worker count, and the device-table cache assumes a function of its
inputs.  Both promises die the moment library code draws entropy from
the OS or the wall clock:

* ``RPA101`` — ``np.random.default_rng()`` *without* a seed draws OS
  entropy: two runs of the same sweep produce different tables.
* ``RPA102`` — the legacy ``np.random.*`` global-state API
  (``np.random.seed`` / ``rand`` / ``normal`` ...) is shared mutable
  state across the whole process: results depend on call order and on
  which worker executed which experiment.
* ``RPA103`` — ``time.time()`` / ``datetime.now()`` inside ``src/repro``
  make results depend on when they ran (use ``time.perf_counter()`` for
  interval timing — it measures durations, never absolute time).
* ``RPA104`` — a public sampler that builds its own ``Generator``
  internally cannot take part in ``SeedSequence.spawn``-based per-task
  seeding; it must accept an explicit ``rng: np.random.Generator``.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.base import (
    Checker,
    dotted_name,
    is_public,
    walk_functions,
)
from repro.analysis.engine import ModuleInfo
from repro.analysis.findings import Finding

#: np.random attributes that are part of the reproducible Generator API.
_GENERATOR_API = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})

#: Wall-clock callables, by dotted suffix.
_WALL_CLOCK = {
    "time.time": "time.time()",
    "time.time_ns": "time.time_ns()",
    "datetime.now": "datetime.now()",
    "datetime.utcnow": "datetime.utcnow()",
    "datetime.today": "datetime.today()",
    "date.today": "date.today()",
}

#: Parameter names that count as an injected random stream.
_RNG_PARAM_NAMES = frozenset({"rng", "generator", "seed_sequence"})


class DeterminismChecker(Checker):
    codes = {
        "RPA101": "unseeded np.random.default_rng() draws OS entropy; "
                  "pass an explicit seed or SeedSequence",
        "RPA102": "legacy np.random global-state API breaks worker "
                  "reproducibility; use np.random.default_rng(seed)",
        "RPA103": "wall-clock call makes library results time-dependent; "
                  "use time.perf_counter() for interval timing",
        "RPA104": "public sampler builds its own Generator; accept an "
                  "explicit rng: np.random.Generator parameter",
    }

    def check_module(self, module: ModuleInfo) -> list[Finding]:
        findings: list[Finding] = []
        numpy_random = self._numpy_random_names(module.tree)
        wall_clock = self._wall_clock_names(module.tree)

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            findings.extend(self._check_rng_call(module, node, name,
                                                 numpy_random))
            findings.extend(self._check_clock_call(module, node, name,
                                                   wall_clock))

        findings.extend(self._check_sampler_signatures(module))
        return findings

    # ------------------------------------------------------------------ #
    # Import resolution
    # ------------------------------------------------------------------ #
    @staticmethod
    def _numpy_random_names(tree: ast.Module) -> dict[str, str]:
        """Names bound to numpy.random members: local name -> member name.

        ``from numpy.random import default_rng as mk`` maps ``mk`` to
        ``default_rng``; plain ``np.random.X`` access is handled by
        suffix matching and needs no entry here.
        """
        bound: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "numpy.random":
                for alias in node.names:
                    bound[alias.asname or alias.name] = alias.name
        return bound

    @staticmethod
    def _wall_clock_names(tree: ast.Module) -> dict[str, str]:
        """Bare names that resolve to wall-clock callables."""
        bound: dict[str, str] = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.module == "time":
                for alias in node.names:
                    if alias.name in ("time", "time_ns"):
                        bound[alias.asname or alias.name] = \
                            f"time.{alias.name}"
            elif node.module == "datetime":
                for alias in node.names:
                    if alias.name in ("datetime", "date"):
                        # flagged when .now()/.today() is called on them
                        bound[alias.asname or alias.name] = alias.name
        return bound

    # ------------------------------------------------------------------ #
    # Rules
    # ------------------------------------------------------------------ #
    def _check_rng_call(self, module: ModuleInfo, node: ast.Call,
                        name: str, bound: dict[str, str]) -> list[Finding]:
        parts = name.split(".")
        member: str | None = None
        if len(parts) >= 3 and parts[-3] in ("np", "numpy") and \
                parts[-2] == "random":
            member = parts[-1]
        elif len(parts) == 1 and parts[0] in bound:
            member = bound[parts[0]]

        if member is None:
            return []
        if member == "default_rng":
            if not node.args and not node.keywords:
                return [self.finding(
                    module, node, "RPA101",
                    "np.random.default_rng() without a seed draws OS "
                    "entropy; pass a seed or a spawned SeedSequence",
                    symbol=name)]
            return []
        if member not in _GENERATOR_API:
            return [self.finding(
                module, node, "RPA102",
                f"legacy global-state RNG call np.random.{member}(); use "
                "an explicit np.random.Generator (default_rng(seed))",
                symbol=name)]
        return []

    def _check_clock_call(self, module: ModuleInfo, node: ast.Call,
                          name: str, bound: dict[str, str]) -> list[Finding]:
        hit: str | None = None
        for suffix, label in _WALL_CLOCK.items():
            if name == suffix or name.endswith("." + suffix):
                hit = label
                break
        if hit is None:
            parts = name.split(".")
            if parts[0] in bound:
                resolved = ".".join([bound[parts[0]], *parts[1:]])
                for suffix, label in _WALL_CLOCK.items():
                    if resolved == suffix:
                        hit = label
                        break
        if hit is None:
            return []
        return [self.finding(
            module, node, "RPA103",
            f"{hit} makes library output depend on wall-clock time; use "
            "time.perf_counter() for durations or pass timestamps in",
            symbol=name)]

    def _check_sampler_signatures(self, module: ModuleInfo) -> list[Finding]:
        findings: list[Finding] = []
        for func, owner in walk_functions(module.tree):
            if not is_public(func.name):
                continue
            if owner is not None and not is_public(owner.name):
                continue
            if not self._calls_default_rng(func):
                continue
            if self._accepts_rng(func):
                continue
            findings.append(self.finding(
                module, func, "RPA104",
                f"public function '{func.name}' constructs its own "
                "Generator via default_rng(); accept an explicit "
                "rng: np.random.Generator parameter so callers (and "
                "runtime.parallel_map seed spawning) control the stream",
                symbol=func.name))
        return findings

    @staticmethod
    def _calls_default_rng(func: ast.FunctionDef | ast.AsyncFunctionDef
                           ) -> bool:
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is not None and \
                        name.split(".")[-1] == "default_rng":
                    return True
        return False

    @staticmethod
    def _accepts_rng(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        args = func.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.arg in _RNG_PARAM_NAMES:
                return True
            annotation = arg.annotation
            if annotation is not None and \
                    "Generator" in ast.dump(annotation):
                return True
        return False
