"""What smoothing does to each kind of bar.

Closed bars fatten, open bars shrink, half-open bars slide.  The
interesting moment is when an open bar runs out of room: it collapses
onto its centre and re-emerges as a closed bar one degree higher.
Negative widths undo all of this, which the semigroup identity makes
precise.  The pointwise oracle (``stalk_type`` in ``tests/oracles.py``,
which the test suite holds ``convolve_interval`` to) recomputes each
stalk independently, from a window of radius eps around the point.
"""

from sheafdist import convolve_interval, parse_graded_interval

bars = [
    parse_graded_interval("[0,4]@0"),
    parse_graded_interval("(0,4)@0"),
    parse_graded_interval("[0,4)@0"),
    parse_graded_interval("(0,4]@0"),
    parse_graded_interval("[1,inf)@0"),
]

print("smoothing by eps:")
print(f"{'bar':>10} | " + " | ".join(f"eps={e:<4}" for e in (1, 2, 3)))
for g in bars:
    row = " | ".join(f"{str(convolve_interval(g, e)):<8}" for e in (1, 2, 3))
    print(f"{str(g):>10} | {row}")

g = parse_graded_interval("(0,4)@0")
print(f"\ncollapse of {g}: half-width 2, so eps=2 is the threshold")
for e in (1.5, 2.0, 2.5):
    print(f"  eps={e}: {convolve_interval(g, e)}")

h = convolve_interval(g, 2.5)
iv = h.interval
print(f"\npointwise at eps=2.5: the smoothed bar is {h}")
for x in (-1.0, 1.5, 2.0, 2.5, 4.5):
    inside = ((iv.lo < x or (x == iv.lo and iv.lo_closed))
              and (x < iv.hi or (x == iv.hi and iv.hi_closed)))
    stalk = f"k in degree {h.degree}" if inside else "0"
    print(f"  x={x:4}: {'in' if inside else 'not in'} {iv}, stalk {stalk}")

print("\nnegative eps inverts:")
h = convolve_interval(g, 1.25)
print(f"  {g} -> eps 1.25 -> {h} -> eps -1.25 -> {convolve_interval(h, -1.25)}")

print("\nsemigroup: split any width as you like")
print(f"  one step  eps=3:      {convolve_interval(g, 3)}")
two = convolve_interval(convolve_interval(g, 1.75), 1.25)
print(f"  two steps 1.75 + 1.25: {two}")
