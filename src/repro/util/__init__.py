"""Small shared utilities: RNG handling, timing, atomic writes, array helpers."""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "atomic_write": "atomicio",
        "atomic_write_bytes": "atomicio",
        "atomic_write_text": "atomicio",
        "as_generator": "rng",
        "spawn_seeds": "rng",
        "Timer": "timing",
    },
)

__all__ = [
    "atomic_write",
    "atomic_write_bytes",
    "atomic_write_text",
    "as_generator",
    "spawn_seeds",
    "Timer",
]
