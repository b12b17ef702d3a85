"""RA201 firing: draws from the legacy global numpy RNG and from the
stdlib random module's global state."""

import random

import numpy as np


def sample_negatives(num_items, count):
    np.random.seed(0)
    return np.random.randint(0, num_items, size=count)


def shuffle_users(users):
    random.shuffle(users)
    return users
