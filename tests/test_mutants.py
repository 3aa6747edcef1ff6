"""Mutation tests for the verify oracles (ROADMAP item 11).

Each mutant replaces one function of the program with a faulty twin at every
trisim module name bound to it, which is the same as editing its source, and
exactly the named fast suites must then fail at seed 0, so the table below
is the matrix of what each suite catches. The control case runs the same
suites with no mutant, and every one of them passes.
"""
import sys

import numpy as np
import pytest

from trisim import risk, sampler, verify
from trisim.cli import SUITES

FAST = [name for name in SUITES if name != "trend"]


def _failing_suites() -> set[str]:
    return {name for name in FAST if not SUITES[name](0).assertable_passed}


def _patch(monkeypatch, module, name, make_mutant) -> None:
    """Bind name to make_mutant(original) in every trisim module whose global
    of that name is the original function."""
    original = getattr(module, name)
    mutant = make_mutant(original)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("trisim") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, mutant)


def _polynomial_b_2w(original):
    # l_u = 1 + z^2 + 2wz in place of 1 + z^2 + 2z/w
    def mutant(prior):
        a, _ = original(prior)
        return a, 2.0 * (prior.pi_plus - prior.pi_minus)

    return mutant


def _side_terms_u_plus_one(original):
    # the exact unlabeled side mean (the logged risk and the gradient's fallback), off by 1
    def mutant(*args):
        *rest, u_term = original(*args)
        return (*rest, u_term + 1.0)

    return mutant


def _rejection_c_u_without_q(original):
    # matched rejection's unlabeled coefficient -2 pi+ pi- in place of -2 pi+ pi- / q
    def mutant(prior, sampler_kind):
        weights, c_u = original(prior, sampler_kind)
        if sampler_kind == "rejection":
            c_u *= 1.0 - prior.pi_plus * prior.pi_minus
        return weights, c_u

    return mutant


def _case_weights_linear_in_prior(original):
    # paper_case's tied-pair cases proportional to pi instead of pi^2
    def mutant(prior):
        w = np.array([prior.pi_plus, prior.pi_minus] * 2)
        return w / w.sum()

    return mutant


def _unlabeled_positives_only(original):
    # the unlabeled pool drawn from the positive class alone
    def mutant(source, n, rng):
        return source.draw_class(rng, 1, n)

    return mutant


def _rejection_first_companion_must_match(original):
    # rejection also rejects every raw triplet whose first companion's class
    # differs from the anchor's
    def mutant(source, rng, out):
        chunk = max(2 * len(out), 16)
        positive = sampler._draw_mask(source, rng, 3 * chunk).reshape(chunk, 3)
        anchor, first, _ = positive.T
        accept = first == anchor
        end = sampler._quota_end(accept, len(out))
        accept[end:] = False
        n_accepted = int(np.count_nonzero(accept))
        sampler._draw_rows(source, rng, positive, out[:n_accepted], keep=accept)
        return end, n_accepted

    return mutant


MUTANTS = {
    "polynomial_b_2w": (risk, "_polynomial", _polynomial_b_2w,
                        {"thetas", "identity", "bias", "matched"}),
    # the batch gradient takes its sign from the moments, not from _side_terms, so
    # the gradient suite compares two independent derivations of the batch risk
    "side_terms_u_plus_one": (risk, "_side_terms", _side_terms_u_plus_one,
                              {"thetas", "gradients"}),
    "rejection_c_u_without_q": (risk, "slot_weights", _rejection_c_u_without_q, {"matched"}),
    "case_weights_linear_in_prior": (sampler, "paper_case_weights",
                                     _case_weights_linear_in_prior, {"matched"}),
    "unlabeled_positives_only": (verify, "sample_unlabeled", _unlabeled_positives_only,
                                 {"bias"}),
    "rejection_first_companion_must_match": (sampler, "_rejection_chunk",
                                             _rejection_first_companion_must_match, {"acceptance"}),
}


def test_control_passes_every_fast_suite():
    assert _failing_suites() == set()


@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_fails_exactly_its_suites(monkeypatch, mutant):
    module, name, make_mutant, caught_by = MUTANTS[mutant]
    _patch(monkeypatch, module, name, make_mutant)
    assert _failing_suites() == caught_by
