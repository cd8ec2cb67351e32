# One step of the partition-sum relation replaces a family by the block sums
# of one of its partitions into summable blocks. Quotienting by the zig-zag
# closure of that relation turns a weak instance into a strong one, explored
# here inside a cap-bounded universe.
from dataclasses import replace

from sigmasum import (
    Budget,
    CongruenceCaps,
    EMPTY,
    Family,
    equivalent,
    ext_nat_instance,
    factorize,
    free_strong_quotient,
    leads_to,
    pm_instance,
    verify_hom,
)

pm = pm_instance()
caps = CongruenceCaps(max_family_size=4, max_omega_elems=1, depth=4)

step = leads_to(pm, Family.of("+", "+", "-"), Family.of("0", "+"), caps)
print("{+,+,-} leads to {0,+}:", step.holds)
print("  witness blocks:", [b for b, m in step.witness.blocks])

verdict = equivalent(pm, Family.of("+", "+", "-"), Family.of("+"), caps)
print("\n{+,+,-} and {+} are equivalent:", verdict.related)
for fam, direction in verdict.chain:
    print("  ", fam, direction or "")

print("\n{+} and {-} stay separate at these caps:",
      not equivalent(pm, Family.of("+"), Family.of("-"),
                     replace(caps, depth=6)).related)

en = ext_nat_instance()
budget = Budget(max_finite_size=4, max_omega_elems=1, trials=0, seed=7)
const0 = verify_hom(lambda e: 0, pm, en, budget, name="const0")
Q = free_strong_quotient(pm, en, const0, caps)
print("\nquotient carrier:", len(Q.carrier.elements), "classes")
plus = Q.class_of(Family.of("+"))
minus = Q.class_of(Family.of("-"))
print("  [{+,+,-}] == [{+}]:", Q.class_of(Family.of("+", "+", "-")) == plus)
print("  [{+}] + [{-}] sums to the zero class:",
      Q.sum(Family.of(plus, minus)).value == Q.class_of(EMPTY))

fac = factorize(pm, en, const0, caps)
print("\nfactoring the constant-zero map through the quotient commutes:",
      fac.commutes)
