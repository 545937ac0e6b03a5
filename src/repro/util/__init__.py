"""Small shared utilities: RNG handling, timing, validation, array helpers."""

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
        "check_1d": "validation",
        "check_nonnegative": "validation",
        "check_positive": "validation",
        "check_same_length": "validation",
    },
)

__all__ = [
    "atomic_write",
    "atomic_write_bytes",
    "atomic_write_text",
    "as_generator",
    "spawn_seeds",
    "Timer",
    "check_1d",
    "check_nonnegative",
    "check_positive",
    "check_same_length",
]
