"""The step-by-step iceberg descent, kept as the oracle for ``frieze.classify``.

``descent_steps_oracle`` takes one gamma step at a time with parameter
ceil(a2/a1) and checks each step as it is taken: the oracle for
``descent_steps`` and ``iceberg_descent``, which both read the runs that
``frieze.classify._runs`` jumps in closed form.  Its checks raise the same
``ValueError`` messages, so they hold under ``python -O`` too.

``descent_mismatches`` compares both public functions with the oracle on
every tuple of a box that passes the descent's input checks.  Run as a
script it prints the number of tuples compared and of mismatches, so a
``python -O`` child can repeat the comparison.
"""

from itertools import product

from frieze import CoeffTuple, delta, descent_steps, gamma_t, iceberg_descent
from frieze.classify import _completed, _descent_target


def descent_steps_oracle(t):
    """Yield the tuples the descent visits, one gamma step at a time."""
    target = _descent_target(t)
    yield t
    if min(t) >= 0:
        return
    if t.a1 == 0:
        yield _completed(target)
        return
    while True:
        nxt = gamma_t(t, -(-t.a2 // t.a1))  # ceil(a2 / a1)
        assert delta(nxt) == target
        yield nxt
        if nxt.a1 == 0 or min(nxt) >= 0:
            if min(nxt) < 0:
                raise ValueError(f"descent ended at {tuple(nxt)}, outside the nonnegative orthant")
            return
        if not 0 > nxt.b2 > t.b2:
            raise ValueError("descent must strictly raise b2")
        t = nxt


def _outcome(function, t):
    try:
        return function(t)
    except ValueError as error:
        return "ValueError", str(error)


def descent_mismatches(low=-3, high=4):
    """(tuples compared, those on which a public function and the oracle differ).

    Every tuple with coordinates in low..high that passes ``_descent_target``
    is compared: ``list(descent_steps(t))`` against the oracle's list, and
    ``iceberg_descent(t)`` against its last element, or both against the
    oracle's ``ValueError`` message.
    """
    compared, mismatches = 0, []
    for coordinates in product(range(max(low, 0), high + 1), *[range(low, high + 1)] * 5):
        t = CoeffTuple(*coordinates)
        try:
            _descent_target(t)
        except ValueError:
            continue
        compared += 1
        expected = _outcome(lambda start: list(descent_steps_oracle(start)), t)
        steps = _outcome(lambda start: list(descent_steps(start)), t)
        end = _outcome(iceberg_descent, t)
        if (steps, end) != ((expected, expected[-1]) if isinstance(expected, list)
                            else (expected, expected)):
            mismatches.append(t)
    return compared, mismatches


if __name__ == "__main__":
    compared, mismatches = descent_mismatches()
    print(compared, len(mismatches))
