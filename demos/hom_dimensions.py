"""Morphism dimensions between single bars, degree shift 0 and 1.

Between interval sheaves every hom space is 0- or 1-dimensional and is
decided by endpoint inequalities that depend on the four boundary
shapes.  The degree-1 spaces are subtler than a first guess suggests:
a closed bar maps one degree up into an open bar as soon as their
*closures* meet, because a touching pair already supports a non-split
extension.  The resolution-based oracle recomputes every entry from
scratch and is what pins the boundary cases down.
"""

from sheafdist import ext_oracle, hom_dim, parse_graded_interval

shapes = ["( {},{} )", "[ {},{} ]", "[ {},{} )", "( {},{} ]"]
samples = [s.replace(" ", "").format(1, 2) for s in shapes]


def table(shift: int) -> None:
    print(f"{'':>8}" + "".join(f"{t + '@' + str(shift):>10}" for t in samples))
    for s in samples:
        src = parse_graded_interval(s + "@0")
        row = [hom_dim(src, parse_graded_interval(t + f"@{shift}")) for t in samples]
        print(f"{s:>8}" + "".join(f"{v:>10}" for v in row))


print("same bar [1,2] against itself in all four shapes:")
print("\ndegree shift 0:")
table(0)
print("\ndegree shift 1:")
table(1)

print("\na touching pair carries a degree-1 morphism even with disjoint interiors:")
src = parse_graded_interval("[0,1]@0")
tgt = parse_graded_interval("(1,2)@1")
print(f"  hom({src} -> {tgt}) = {hom_dim(src, tgt)}")
print(f"  oracle agrees:       {ext_oracle(src, tgt)}")
print("  witness: 0 -> k(1,2) -> k[0,2) -> k[0,1] -> 0 has no splitting")

print("\nevery boundary class where the computed table differs from the naive rule,")
print("with its witness: docs/hom_boundary_cases.md")
