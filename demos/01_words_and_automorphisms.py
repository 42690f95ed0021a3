#!/usr/bin/env python3
"""Tour of the exact word arithmetic and the rank-two automorphism layer."""

from braidact import AutF2, Word, commutator, is_basis, nielsen_reduce

print("== reduced words ==")
u = Word.parse("abb") * Word.parse("BB")
print("ab b b^-1 b^-1 reduces to:", u)
print("inverse of aB:", Word.parse("aB").inverse())
print("substitute a->xy, b->yx^-1 into aab:",
      Word.parse("aab").substitute((Word((1, 2)), Word((2, -1)))))

w = Word.parse("abaBA")
core, conj = w.cyclically_reduce()
print(f"cyclic reduction of {w}: core {core}, conjugator {conj}")
# Conjugate words have cyclic cores that are rotations of each other.
c1, _ = Word.parse("ababb").cyclically_reduce()
c2, _ = Word.parse("babba").cyclically_reduce()
rotations = {c1.letters[k:] + c1.letters[:k] for k in range(len(c1))}
print("ababb conjugate to babba?", c2.letters in rotations)

print()
print("== bases of the rank-two free group ==")
pairs = [("abA", "a"), ("ab", "ba"), ("aa", "b")]
for ta, tb in pairs:
    a, b = Word.parse(ta), Word.parse(tb)
    print(f"({ta}, {tb}): commutator {commutator(a, b)}, basis: {is_basis(a, b)}")

print()
print("== greedy Nielsen reduction ==")
pair, moves = nielsen_reduce(Word.parse("abA"), Word.parse("a"))
print("(abA, a) reduces to", tuple(str(x) for x in pair), "via moves", moves)

print()
print("== composing and inverting automorphisms ==")
tau = AutF2.parse("abA,a")
print("tau          :", tau)
print("tau . tau    :", tau.compose(tau))
print("tau inverse  :", tau.inverse())
print("check        :", tau.compose(tau.inverse()))
