"""RA601 firing: in-place writes through aliases of autograd buffers and
into the caller's array from inside a shape-contracted function."""

from repro.contracts import shape_contract


def corrupt(tensor, idx):
    view = tensor.data[0]        # row view aliases the live buffer
    view[:] = 0.0                # mutates tensor.data through the alias
    flat = tensor.grad.reshape(-1)
    flat[idx] += 1.0             # same story via a reshape view


@shape_contract("(N, D) f -> (N, D) f")
def sharpen(item_embs):
    item_embs *= 1.5             # rescales the caller's array too
    return item_embs
