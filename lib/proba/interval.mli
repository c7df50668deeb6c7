(** Outward-rounded double intervals.

    A value [{lo; hi}] encloses an exact real; every operation rounds
    [lo] down and [hi] up, so enclosures are preserved using nothing
    but double arithmetic.  The guided finite-horizon sweeps
    ([Mdp.Finite_horizon], over [Mdp.Arena.interval_plane]) run on
    this plane first and fall back to exact rationals only where the
    interval stayed wide: a {e point} interval ([lo = hi], finite)
    contains exactly one real, and that real is a dyadic rational
    recoverable with {!Rational.of_float_exact} — so point results pin
    exact values without any Bigint work.

    The directed helpers are {e correctly rounded} wherever the
    operation's residual is exactly representable (always for [+.];
    for [*.] outside the near-subnormal zone, where one extra ulp of
    widening is applied) — tightness is what lets intervals collapse
    to points on dyadic models. *)

type t = private { lo : float; hi : float }

val lo : t -> float
val hi : t -> float

(** {1 Directed scalar arithmetic}

    Sound double endpoints for engines that keep raw [lo]/[hi] arrays:
    [add_down a b <= a + b <= add_up a b] (as reals, for the exact
    reals enclosed by [a] and [b]), and likewise for [mul_*].
    Overflow saturates soundly ([max_float] inward, infinity
    outward). *)

val add_down : float -> float -> float
val add_up : float -> float -> float
val mul_down : float -> float -> float
val mul_up : float -> float -> float

(** {1 Construction} *)

(** Tightest interval around an exact rational (correctly rounded
    endpoints; a point whenever the rational is a finite double). *)
val of_rational : Rational.t -> t
