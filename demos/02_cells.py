"""
The five recurrent cells
========================

The package implements classical LSTM and GRU cells plus three dilated
cells.  A dilated cell feeds back not only the previous state but also the
state from d steps earlier, so stacking cells with different dilations lets
the network look at the past on several time scales at once.  The attentive
cell goes one step further: a lower cell emits a per-component attention
vector that multiplicatively reweights the upper cell's input.
"""

import numpy as np

from loadcast import CELL_VARIANTS, cell_init, cell_step, new_state

rng = np.random.default_rng(0)
input_size, hidden = 6, 5
steps = 10
inputs = [rng.normal(size=input_size) for _ in range(steps)]

print(f"running {steps} steps of each variant on the same input sequence\n")
for variant, (kind, connection) in sorted(CELL_VARIANTS.items()):
    # dilated kinds need an explicit output size; classical kinds emit h
    needs_split = variant in ("dlstm", "drnn", "adrnn")
    params, _ = cell_init(
        kind, input_size, hidden,
        out_size=hidden if needs_split else None,
        upper_hidden_size=hidden if variant == "adrnn" else None,
        connection=connection, dilation=3, seed=1)
    state = new_state(params, dilation=3)
    for x in inputs:
        out = cell_step(params, state, x, 3)
    print(f"{variant:6s} out[:3] = {np.round(out[:3], 4)}")

# dilation matters: the same delayed-state cell diverges once the lagged
# state it reads back is no longer the cold-start zero vector
print("\nsame cell, different dilations:")
for dilation in (1, 2, 4, 7):
    params, _ = cell_init(CELL_VARIANTS["drnn"][0], input_size, hidden,
                          out_size=hidden, dilation=dilation, seed=1)
    state = new_state(params, dilation)
    for x in inputs:
        out = cell_step(params, state, x, dilation)
    print(f"  d={dilation}: final out[0] = {out[0]:+.6f}")

# the attentive cell's reweighting is exp of a clamped signal, so at a
# zero-bias cold start every weight is close to exp(0) = 1 and the upper
# cell sees an almost-unscaled input
params, _ = cell_init(CELL_VARIANTS["adrnn"][0], input_size, hidden,
                      out_size=hidden, upper_hidden_size=hidden, seed=1)
state = new_state(params, dilation=2)
first = cell_step(params, state, inputs[0], 2)
print(f"\nattentive cell, first step: out[:3] = {np.round(first[:3], 4)}")
print("(at the first step the lower cell has only cold-start state, so its")
print(" attention output is small and the input reweighting is near 1)")
