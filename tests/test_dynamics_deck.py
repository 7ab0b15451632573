"""The satisfaction-response dynamics on the benchmark's N-player games.

`satisfaction_response_dynamics` must end every game of the
nplayer_analytic deck (perfbench/decks.py, loaded by path and only read)
exactly where a plain loop over the reference kernel ends it: same round
count, same converged flag, same final bytes.
"""

import numpy as np

from segic import (
    GameSpec,
    InvalidInputError,
    RawChannel,
    game_from_raw,
    load_scenario,
    satisfaction_response_dynamics,
)

from helpers import perfbench_decks, reference_min_satisfying_powers

MAX_ITERS = 10000  # the library default, which the benchmark runs with
TOL = 1e-9


def reference_dynamics(game, p0, max_iters, tol):
    """Out-of-place rounds: a fresh min, abs and max per round."""
    p = np.asarray(p0, dtype=float)
    for k in range(1, max_iters + 1):
        nxt = np.minimum(reference_min_satisfying_powers(game, p), game.p_max)
        converged = bool(np.max(np.abs(nxt - p)) < tol)
        p = nxt
        if converged:
            return p, k, True
    return p, max_iters, False


def build(op):
    if op.form == "file":
        return load_scenario(op.path)[0]
    if op.form == "raw":
        return game_from_raw(RawChannel(h=op.h, awgn=op.awgn), op.gammas, op.p_max)
    return GameSpec(attenuation=op.a, noise=op.noise, thresholds=op.gammas, p_max=op.p_max)


def test_nplayer_deck_matches_reference_loop(tmp_path):
    deck = perfbench_decks().nplayer_deck(1, tmp_path)
    assert len(deck) == 84
    games, rejected = [], 0
    for op in deck:
        try:
            games.append(build(op))
        except InvalidInputError:  # gamma >= 512 is rejected at construction
            rejected += 1
    assert rejected == 4
    rounds = capped = 0
    for game in games:
        p0 = np.zeros(game.n)
        p, iters, converged = satisfaction_response_dynamics(game, p0, MAX_ITERS, TOL)
        want, want_iters, want_converged = reference_dynamics(game, p0, MAX_ITERS, TOL)
        assert (iters, converged) == (want_iters, want_converged)
        assert p.tobytes() == want.tobytes()
        rounds += iters
        capped += not converged
    assert capped > 0 and rounds > 10 * len(games)  # capped runs are exercised too
