import importlib
import pkgutil

import quasiflags

# every module-level cache of the package, by function, with its bound
BOUNDS = {
    ("quasiflags.characters", "tangent_table"): 8192,
    ("quasiflags.hall", "_all_subspaces"): 16,
    ("quasiflags.localization", "_transfer_table"): 16,
    ("quasiflags.series", "root_lattice"): 32,
    ("quasiflags.tableaux", "_fixed_points"): 4096,
}


def test_every_cache_is_bounded():
    cached = {}
    for info in pkgutil.iter_modules(quasiflags.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"quasiflags.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_info"):
                cached[(value.__module__, value.__qualname__)] = value.cache_info().maxsize
    assert cached == BOUNDS
