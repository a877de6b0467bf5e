"""Adam optimizer with bias correction.

Operates on the Param objects returned by a network's params() and
reads their accumulated .grad fields. The learning rate attribute may
be reassigned between steps to implement a schedule.
"""

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, params: list, lr: float = 1e-4):
        self.params = list(params)
        self.lr = float(lr)
        self.step_count = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad[...] = 0.0

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - BETA1 ** t
        c2 = 1.0 - BETA2 ** t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p.value -= self.lr * (m / c1) / (np.sqrt(v / c2) + EPS)
