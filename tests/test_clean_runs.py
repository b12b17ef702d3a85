"""A run with no injected fault takes every training step.

The trainer skips a step whose loss is not finite, so that an injected
``poison_nan`` or a poisoned stream event never reaches the parameters
(those containment paths are tested in ``test_faults.py`` and
``test_stream_faults.py``).  A clean run must never need it: there a
skipped step is a numerical bug that containment would reduce to a
counter.
"""

import pytest

from repro.backend import use_backend
from repro.experiments import make_strategy, run_strategy
from repro.incremental import TrainConfig
from repro.obs import summarize_trace


@pytest.mark.parametrize("users_per_batch", [1, 4])
@pytest.mark.parametrize("backend_name", ["default", "fast"])
def test_clean_imsr_sa_run_skips_no_step(tiny_split, tmp_path,
                                         backend_name, users_per_batch):
    # lr 0.2 grows the EIR logits (Eq. 10) until a float32 sigmoid
    # saturates to exactly 1.0
    config = TrainConfig(epochs_pretrain=2, epochs_incremental=2, lr=0.2,
                         num_negatives=5, seed=0,
                         users_per_batch=users_per_batch)
    with use_backend(backend_name):
        strategy = make_strategy("IMSR", "ComiRec-SA", tiny_split, config,
                                 model_kwargs={"dim": 12, "num_interests": 3})
        run_strategy(strategy, tiny_split, "tiny", "ComiRec-SA",
                     trace_dir=tmp_path)
    metrics = summarize_trace(tmp_path)["metrics"]
    assert metrics["train.steps"]["value"] > 0
    skips = metrics.get("train.nonfinite_skips", {"value": 0.0})["value"]
    assert skips == 0
