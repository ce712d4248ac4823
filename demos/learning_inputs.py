"""Walk through fitting a response suppression table from history.

One category's response history is counted per outcome, and one
suppression table is fitted to it.  With labels, ``records_from_json``
counts the records per category as it decodes them and ``fit_categories``
fits one table per category, as ``mcap fit --labels`` does.

Run: python3 demos/learning_inputs.py
"""

import random
from collections import Counter
from fractions import Fraction

from mcap import fit_suppression

rng = random.Random(42)

# Ground truth for the demo: full response to one recommendation, half to
# two, a quarter to three.  Response happened when suppressed preference
# exceeded 2.  The fit sees only how many times each outcome
# (campaign, preference, h, responded) happened.
true = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 4)]
history = Counter()
for _ in range(60):
    preference = rng.randint(1, 9)
    h = rng.randint(1, 3)
    history["newsletter", preference, h, preference * true[h] > 2] += 1
fit = fit_suppression(history, max_h=3, grid=4)
print(f"fitted suppression table: {[str(v) for v in fit.table.values]}")
print(f"  (true table was          {[str(v) for v in true]})")
print(f"  satisfied {fit.satisfied}/{fit.total} responder/non-responder conditions")
