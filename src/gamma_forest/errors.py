"""Errors shared by the enumeration modules."""


class LimitExceededError(ValueError):
    """Raised when a requested enumeration size is above the configured cap.

    Every enumerator takes the cap as an argument with a conservative
    default, so callers that really want a larger run can opt in explicitly.
    """

    def __init__(self, what: str, n: int, cap: int):
        super().__init__(f"{what}: n={n} exceeds the cap {cap}; pass a larger cap to opt in")
        self.what = what
        self.n = n
        self.cap = cap


def check_size(what: str, n: object, cap: int | None = None, name: str = "n") -> None:
    """Refuse a size that is not a positive int, or that is above cap.

    Raises ValueError when type(n) is not int (floats and bools included) or
    n < 1, and LimitExceededError when n > cap.  what names the caller in the
    LimitExceededError; name is the size's name in the ValueError.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"{name} must be a positive integer")
    if cap is not None and n > cap:
        raise LimitExceededError(what, n, cap)
