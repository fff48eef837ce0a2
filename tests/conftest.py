"""Shared fixtures: standard graphs, random generators, settings."""

from __future__ import annotations

import os
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from causalid import CausalGraph, DiscreteModel

# tests that run `python -m causalid.cli` in a subprocess import this
# checkout's package too, as pytest's `pythonpath` setting does here
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH"))))

settings.register_profile(
    "ci", derandomize=True, max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("ci")


@pytest.fixture
def chain():
    return CausalGraph(["X", "Z", "Y"], [("X", "Z"), ("Z", "Y")])


@pytest.fixture
def fork():
    return CausalGraph(["X", "Z", "Y"], [("Z", "X"), ("Z", "Y")])


@pytest.fixture
def collider():
    return CausalGraph(["X", "Z", "Y"], [("X", "Z"), ("Y", "Z")])


@pytest.fixture
def frontdoor_graph():
    return CausalGraph([("U", True), "X", "Z", "Y"],
                       [("U", "X"), ("U", "Y"), ("X", "Z"), ("Z", "Y")])


@pytest.fixture
def loyalty_graph():
    return CausalGraph([("U", True), "Z", "X", "Y"],
                       [("U", "Z"), ("Z", "X"), ("X", "Y"), ("U", "Y")])


@pytest.fixture
def pricing_graph():
    return CausalGraph([("U", True), "X", "Z", "Y"],
                       [("U", "X"), ("U", "Z"), ("X", "Z"), ("X", "Y"),
                        ("Z", "Y")])


@pytest.fixture
def blocked_fork_graph():
    # X -> A <- C -> Y with B hanging off the collider A
    return CausalGraph(["X", "A", "B", "C", "Y"],
                       [("X", "A"), ("C", "A"), ("C", "Y"), ("A", "B")])


def binary_confounder_model() -> DiscreteModel:
    """Z confounds X and Y; p(y=1|do(x=1)) works out to exactly 7/10."""
    F = Fraction
    g = CausalGraph(["Z", "X", "Y"], [("Z", "X"), ("Z", "Y"), ("X", "Y")])
    return DiscreteModel.from_tables(
        g, {"Z": (0, 1), "X": (0, 1), "Y": (0, 1)},
        {
            "Z": {(): (F(1, 2), F(1, 2))},
            "X": {(0,): (F(3, 4), F(1, 4)), (1,): (F(1, 4), F(3, 4))},
            # parent order (Z, X); rows pin p(y=1|x=1,z=1)=9/10 and
            # p(y=1|x=1,z=0)=1/2
            "Y": {(0, 0): (F(9, 10), F(1, 10)),
                  (0, 1): (F(1, 2), F(1, 2)),
                  (1, 0): (F(2, 3), F(1, 3)),
                  (1, 1): (F(1, 10), F(9, 10))},
        })


@pytest.fixture
def confounder_model():
    return binary_confounder_model()


def random_dag(rng: random.Random, n: int, p: float = 0.4,
               latent: float = 0.0) -> CausalGraph:
    """Random DAG over a shuffled order; optional latent fraction."""
    names = [f"V{i}" for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((order[i], order[j]))
    variables = [(nm, rng.random() < latent) for nm in names]
    return CausalGraph(variables, edges)


def disjoint_sets(rng: random.Random, names, max_z: int = 3):
    """Random nonempty singleton-or-pair X, Y and a disjoint Z."""
    pool = list(names)
    rng.shuffle(pool)
    x = {pool.pop()}
    y = {pool.pop()}
    if len(pool) >= 2 and rng.random() < 0.4:
        x.add(pool.pop())
    z = set()
    for _ in range(min(max_z, len(pool))):
        if rng.random() < 0.5:
            z.add(pool.pop())
    return x, y, z
