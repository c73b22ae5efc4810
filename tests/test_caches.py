import importlib
import pkgutil

import quasiflags


def test_every_cache_is_bounded():
    cached = {}
    for info in pkgutil.iter_modules(quasiflags.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"quasiflags.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                cached[f"{info.name}.{name}"] = value.cache_info().maxsize
    assert {"characters.step_counts", "characters.tangent_table", "tableaux._fixed_points",
            "roots._kostant_cached", "hall._all_subspaces",
            "localization._transfer_table"} <= set(cached)
    assert all(size is not None for size in cached.values()), cached
