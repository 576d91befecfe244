"""Summary statistics and failure counting shared by the runner and its tests."""

import statistics


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count of a list of measurements.

    Quartiles use the inclusive method so that two passes already give a
    spread; a single value is its own median and quartiles.
    """
    if not values:
        raise ValueError("no measurements")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def count_failures(exit_codes: list[int], bode_flags: list[str]) -> tuple[int, int]:
    """(attempted, failed) operations.

    Each CLI call is one operation and fails when it exits non-zero; each
    sweep row is one operation and fails when its flag is not ``ok``.
    """
    attempted = len(exit_codes) + len(bode_flags)
    failed = sum(rc != 0 for rc in exit_codes) + sum(f != "ok" for f in bode_flags)
    return attempted, failed
