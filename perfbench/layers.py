"""Per-layer metrics from a cProfile run of one workload.

The layers are the nine modules of `quasicross`.  Functions are located
by qualified name in each module's source, so a renamed or deleted
function shows up as a missing hook, never as a zero.  The profiler is
installed from here; nothing inside `src/` is instrumented.
"""

from __future__ import annotations

import cProfile
import os
import pstats

LAYERS = (
    "groups", "splitting", "constructions", "intlinalg", "lattice",
    "codec", "bounds", "search", "cli",
)

CO_OPTIMIZED = 0x1

CONSTRUCTORS = (
    "cyclic_splitting", "field_splitting", "two_one_splitting",
    "matrix_extension", "mixed_splitting", "balance_family",
)

# hook -> (module, qualified name)
HOOKS = {
    "dfs": ("search", "search_tilings.<locals>.dfs"),
    "search_tilings": ("search", "search_tilings"),
    "cover_blocks": ("search", "_cover_blocks"),
    "orbit_min": ("search", "_orbit_min"),
    "verify_packing": ("splitting", "verify_packing"),
    "is_tiling": ("splitting", "is_tiling"),
    "scan": ("splitting", "_scan_products"),
    "splitting_init": ("splitting", "Splitting.__post_init__"),
    "image": ("splitting", "image"),
    "feasibility": ("bounds", "instance_feasibility"),
    "scalar_mul": ("groups", "FiniteAbelianGroup.scalar_mul"),
    "add": ("groups", "FiniteAbelianGroup.add"),
    "encode": ("codec", "encode"),
    "decode": ("codec", "decode"),
    "table": ("codec", "SyndromeTable.__init__"),
    "kernel": ("lattice", "lattice_from_splitting"),
    "determinant": ("lattice", "determinant"),
    "geometric": ("lattice", "geometric_check"),
    "bareiss": ("intlinalg", "bareiss_det"),
    "hnf": ("intlinalg", "hnf_lower"),
    "left_kernel": ("intlinalg", "left_kernel"),
    "reduce": ("intlinalg", "reduce_mod_lattice"),
    "main": ("cli", "main"),
} | {name: ("constructions", name) for name in CONSTRUCTORS}


class Missing(Exception):
    """A hook named by a metric no longer exists in the source."""


def _code_keys(path: str) -> dict[str, tuple]:
    """Qualified name -> cProfile key for every function in a source file."""
    with open(path, encoding="utf-8") as fh:
        top = compile(fh.read(), path, "exec")
    keys = {}

    def walk(code, prefix: str) -> None:
        for const in code.co_consts:
            if not hasattr(const, "co_code"):
                continue
            qual = prefix + const.co_name
            if const.co_flags & CO_OPTIMIZED:
                keys[qual] = (const.co_filename, const.co_firstlineno, const.co_name)
                walk(const, qual + ".<locals>.")
            else:  # class body
                walk(const, qual + ".")

    walk(top, "")
    return keys


class LayerProfile:
    """cProfile statistics read by layer and by named hook."""

    def __init__(self, profile: cProfile.Profile, package_dir: str):
        self.stats = pstats.Stats(profile).stats
        self.package_dir = os.path.realpath(package_dir)
        self.keys: dict[str, tuple] = {}
        self.missing: list[str] = []
        by_module = {}
        for module in LAYERS:
            path = os.path.join(self.package_dir, module + ".py")
            by_module[module] = _code_keys(path) if os.path.exists(path) else None
        for hook, (module, qual) in HOOKS.items():
            table = by_module[module]
            if table is None or qual not in table:
                self.missing.append(f"quasicross.{module}.{qual}")
            else:
                self.keys[hook] = table[qual]
        self.absent_modules = [m for m, t in by_module.items() if t is None]

    def layer_of(self, key) -> str | None:
        filename = key[0]
        if os.path.dirname(os.path.realpath(filename)) != self.package_dir:
            return None
        module = os.path.basename(filename)[:-3]
        return module if module in LAYERS else None

    def _key(self, hook: str):
        if hook not in self.keys:
            raise Missing(hook)
        return self.keys[hook]

    def calls(self, hook: str) -> int:
        entry = self.stats.get(self._key(hook))
        return entry[1] if entry else 0

    def inclusive(self, hook: str) -> float:
        entry = self.stats.get(self._key(hook))
        return entry[3] if entry else 0.0

    def calls_from(self, hook: str, module: str) -> int:
        """Calls of `hook` made directly by functions of `module`."""
        entry = self.stats.get(self._key(hook))
        if not entry:
            return 0
        return sum(v[1] for caller, v in entry[4].items() if self.layer_of(caller) == module)

    def entries(self, hooks, module: str) -> tuple[int, float]:
        """Calls into `hooks` from outside `module` and their inclusive time."""
        calls, seconds = 0, 0.0
        for hook in hooks:
            entry = self.stats.get(self._key(hook))
            if not entry:
                continue
            for caller, v in entry[4].items():
                if self.layer_of(caller) != module:
                    calls += v[1]
                    seconds += v[3]
        return calls, seconds

    def module_totals(self) -> dict[str, tuple[int, float]]:
        """Per layer: calls of its Python functions, and self time, which
        includes the built-ins those functions call."""
        totals = {m: [0, 0.0] for m in LAYERS}
        for key, (_, nc, tt, _, callers) in self.stats.items():
            layer = self.layer_of(key)
            if layer is not None:
                totals[layer][0] += nc
                totals[layer][1] += tt
            elif key[0] == "~":
                for caller, v in callers.items():
                    caller_layer = self.layer_of(caller)
                    if caller_layer is not None:
                        totals[caller_layer][1] += v[2]
        return {m: (c, s) for m, (c, s) in totals.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(prof: LayerProfile, verify_ok: int) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric this profile can give, and the metrics left
    out because a hook they read is missing.  `verify_ok` is the number
    of `verify` commands the workload ran to exit 0."""
    p = prof
    defs = {
        "search.dfs_nodes": lambda: p.calls("dfs"),
        "search.search_s": lambda: p.inclusive("search_tilings"),
        "search.nodes_per_s": lambda: _ratio(p.calls("dfs"), p.inclusive("search_tilings")),
        "search.cover_blocks_s": lambda: p.inclusive("cover_blocks"),
        "search.orbit_canon_s": lambda: p.inclusive("orbit_min"),
        "search.reverify_scans": lambda: p.calls_from("verify_packing", "search")
        + p.calls_from("is_tiling", "search"),
        "bounds.feasibility_calls": lambda: p.calls("feasibility"),
        "bounds.feasibility_s": lambda: p.inclusive("feasibility"),
        "groups.scalar_mul_calls": lambda: p.calls("scalar_mul"),
        "groups.add_calls": lambda: p.calls("add"),
        "splitting.image_calls": lambda: p.calls("image"),
        "splitting.image_s": lambda: p.inclusive("image"),
        "splitting.packing_scans": lambda: p.calls("scan"),
        "splitting.splittings": lambda: p.calls("splitting_init"),
        "splitting.scans_per_splitting": lambda: _ratio(p.calls("scan"), p.calls("splitting_init")),
        "codec.encode_calls": lambda: p.calls("encode"),
        "codec.decode_calls": lambda: p.calls("decode"),
        "codec.encode_s": lambda: p.inclusive("encode"),
        "codec.decode_s": lambda: p.inclusive("decode"),
        "codec.encode_words_per_s": lambda: _ratio(p.calls("encode"), p.inclusive("encode")),
        "codec.decode_words_per_s": lambda: _ratio(p.calls("decode"), p.inclusive("decode")),
        "codec.table_builds": lambda: p.calls("table"),
        "codec.table_build_s": lambda: p.inclusive("table"),
        "codec.table_builds_per_decode": lambda: _ratio(p.calls("table"), p.calls("decode")),
        "constructions.builds": lambda: p.entries(CONSTRUCTORS, "constructions")[0],
        "constructions.build_s": lambda: p.entries(CONSTRUCTORS, "constructions")[1],
        "lattice.kernel_s": lambda: p.inclusive("kernel"),
        "lattice.determinant_s": lambda: p.inclusive("determinant"),
        "lattice.verify_commands": lambda: verify_ok,
        "lattice.determinants_per_verify": lambda: _ratio(p.calls("determinant"), verify_ok),
        "lattice.geometric_check_s": lambda: p.inclusive("geometric"),
        "intlinalg.bareiss_s": lambda: p.inclusive("bareiss"),
        "intlinalg.bareiss_calls": lambda: p.calls("bareiss"),
        "intlinalg.hnf_s": lambda: p.inclusive("hnf"),
        "intlinalg.left_kernel_s": lambda: p.inclusive("left_kernel"),
        "intlinalg.reduce_calls": lambda: p.calls("reduce"),
        "cli.commands": lambda: p.calls("main"),
    }
    metrics: dict[str, float] = {}
    missing: list[str] = []
    for name, fn in defs.items():
        try:
            metrics[name] = fn()
        except Missing:
            missing.append(name)
    totals = prof.module_totals()
    for module in LAYERS:
        if module in prof.absent_modules:
            missing += [f"{module}.calls", f"{module}.self_s"]
            continue
        metrics[f"{module}.calls"], metrics[f"{module}.self_s"] = totals[module]
    return metrics, missing


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if "_per_" in name or name == "trace.overhead":
        return "ratio"
    return "count"
