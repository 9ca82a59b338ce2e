"""Half-open bars are ordinary persistence bars, losslessly.

The right-directed part of a barcode is a persistence diagram (birth at
the closed end, death at the open end); the left-directed part becomes
one after reflecting the line.  The translation preserves bottleneck
distances: matching half-open bars costs exactly what matching the
corresponding diagram points costs, deletions included.
"""


from sheafdist import (
    Barcode,
    format_diagrams,
    from_persistence,
    parse_barcode,
    part_bottleneck,
    to_persistence,
)

b = parse_barcode("""
0 [0,3)
0 [1,inf)
0 (-2,5]
1 (0,2]
""")

print("barcode:")
for g in b:
    print(f"  {g}")

r0 = to_persistence(b, "R", 0)
l0 = to_persistence(b, "L", 0)
l1 = to_persistence(b, "L", 1)
print("\nas diagrams (.pdg lines):")
print(format_diagrams([r0, l0, l1]), end="")

print("round trip restores every bar exactly:")
for side, diagram in (("R", r0), ("L", l0), ("L", l1)):
    for g in from_persistence(diagram, side):
        print(f"  {g}")

left = [g for g in parse_barcode("0 [0,2)\n0 [1,1.5)\n")]
right = [g for g in parse_barcode("0 [0.5,2.5)\n0 [8,8.5)\n")]
value, pairs = part_bottleneck(left, right)
print(f"\nslot bottleneck between two R-parts: {value}")
for l, r, c in pairs:
    print(f"  {str(l) if l else 'deleted':>10}  <->  {str(r) if r else 'deleted':<10}  cost {c}")
print("(short bars are cheaper to delete than to stretch across the gap)")
