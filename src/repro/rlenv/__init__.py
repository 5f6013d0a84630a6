"""The RL training environment and training functions (paper §4.1 and §6.6).

* :class:`~repro.rlenv.batched_env.BatchedQCloudEnv` — the single-step
  allocation MDP as a native :class:`~repro.gymapi.vector.VecEnv`: the state
  is the §4.1 16-dimensional vector (normalised job demand plus per-device
  free level / error score / CLOPS), the action is a 5-dim continuous
  allocation-weight vector, the reward is the mean device fidelity of the
  resulting allocation.  ``n_envs`` jobs are sampled, observed and scored per
  call with vectorized NumPy; ``n_envs=1`` is serial training.
* :mod:`~repro.rlenv.train` — PPO training of the allocation agent with the
  paper's setup (100,000 timesteps, MLP policy, default hyperparameters),
  collection of the Fig. 5 training curve and evaluation of a trained policy.
"""

from repro.rlenv.batched_env import BatchedQCloudEnv
from repro.rlenv.train import evaluate_policy, train_allocation_policy

__all__ = ["BatchedQCloudEnv", "evaluate_policy", "train_allocation_policy"]
