"""Walk through estimating the model's inputs from data.

Three steps: cluster customers into categories, fit one suppression table
per category from response history, and fill a missing preference by
collaborative filtering.

Run: python3 demos/learning_inputs.py
"""

import random
from collections import Counter
from fractions import Fraction

from mcap import (
    RatingsMatrix,
    categorize_customers,
    fit_suppression,
    predict_preferences_cf,
)

rng = random.Random(42)

# --- 1. categories -----------------------------------------------------
# Profiles are numeric feature vectors (say: age, sessions per week).
# Two obvious groups, recovered by seeded k-means.
profiles = [(22 + rng.random(), 7 + rng.random()) for _ in range(5)]
profiles += [(61 + rng.random(), 1 + rng.random()) for _ in range(5)]
labels = categorize_customers(profiles, category_count=2, seed=0)
print(f"category labels: {labels}")

# --- 2. suppression from history ---------------------------------------
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
print()
print(f"fitted suppression table: {[str(v) for v in fit.table.values]}")
print(f"  (true table was          {[str(v) for v in true]})")
print(f"  satisfied {fit.satisfied}/{fit.total} responder/non-responder conditions")

# --- 3. preferences by collaborative filtering --------------------------
# "carol" hasn't seen the hiking campaign; her ratings track alice's, so
# the prediction leans on alice's opinion of it.
ratings = RatingsMatrix.from_triplets(
    [
        ("alice", "books", 8), ("alice", "travel", 2), ("alice", "hiking", 9),
        ("bob", "books", 1), ("bob", "travel", 9), ("bob", "hiking", 3),
        ("carol", "books", 9), ("carol", "travel", 1),
    ]
)
predicted = predict_preferences_cf(ratings, "carol", "hiking")
print()
print(f"carol's predicted preference for 'hiking': {predicted}")
