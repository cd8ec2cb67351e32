# Families are countable multisets: a finite part with exact counts plus a
# set of elements repeated omega (countably infinitely) many times. Order of
# construction never matters; everything lives in a canonical sorted form.
from sigmasum import (
    BRACKETING,
    FLATTENING,
    Caps,
    Family,
    OMEGA,
    canonicalize,
    disjoint_union,
    enumerate_partitions,
    intersect,
    is_subfamily,
    map_family,
    static_truncation,
)

fam = canonicalize([("+", 1), ("+", 1), ("-", 1)])
print("canonical form of +,+,-:", fam)
print("same family, different insertion order:",
      fam == canonicalize([("-", 1), ("+", 2)]))

# omega absorbs any finite count of the same element
inf = canonicalize([("a", OMEGA), ("a", 2)])
print("omega absorbs finite counts:", inf, "count(a) =", inf.count("a"))

# disjoint union adds counts, with omega absorbing
print("union:", disjoint_union(Family.of("+"), Family.of("+", "-")))

# subfamilies compare counts pointwise; intersection is the pointwise minimum
print("{+,+} inside {+,+,-}:",
      is_subfamily(Family.of("+", "+"), Family.of("+", "+", "-")))
print("intersection of {+,-} and {+,+}:",
      intersect(Family.of("+", "-"), Family.of("+", "+")))

# mapping merges counts in the image (1 + omega = omega)
merged = map_family(lambda e: "c", Family.from_counts([("a", 1)], omega=["b"]))
print("image family under a constant map:", merged)

# Partitions come in shapes. Bracketing-shape blocks are all finite (an
# infinite family needs omega-repeated blocks); flattening-shape has finitely
# many blocks, which may themselves be infinite.
print("\npartitions of {+,-} into finite blocks:")
for part in enumerate_partitions(Family.of("+", "-"), BRACKETING, Caps(2, 2, 2)):
    print("  ", part)

zeros = Family.from_counts([], omega=["0"])
print("\nflattening-shape partitions of omega zeros (capped at two blocks):")
for part in enumerate_partitions(zeros, FLATTENING, Caps(2, 4, 2)):
    print("  ", part)
print("search clipped by caps?", static_truncation(zeros, Caps(2, 4, 2)))
