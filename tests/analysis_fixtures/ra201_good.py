"""RA201 silent: a seeded Generator threaded through explicitly, and a
stdlib random.Random instance built from a seed."""

import random

import numpy as np


def sample_negatives(num_items, count, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, num_items, size=count)


def shuffle_users(users, seed):
    rng = random.Random(seed)
    rng.shuffle(users)
    return users
