"""Exception types shared across the package."""


class StepBudgetExceeded(RuntimeError):
    """Wedge straightening ran past its insertion budget or the recursion limit.

    Raised instead of looping silently or overflowing the stack; the message
    names the head, or its length when the head was too long.  `verify`
    reports it as one failing case of the suite that raised it.
    """


class ConventionError(RuntimeError):
    """An internal consistency requirement failed.

    Examples: an odd entry of A'(1), a non-antisymmetric residual in the
    canonical-basis solve, a non-unit pivot in the cellular change of basis.
    These conditions are theorems under the implemented conventions, so a
    failure means the conventions disagree somewhere.  `verify` reports it
    as one failing case of the suite that raised it.
    """
