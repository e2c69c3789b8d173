
def build_dna(n):
    bases = "ACGT"
    parts = []
    seed = 42
    for i in xrange(n):
        seed = (seed * 1103515245 + 12345) % 2147483648
        parts.append(bases[(seed / 65536) % 4])
    return "".join(parts)

seq = build_dna(3000)
variants = [
    "AGGT",
    "[CT]GGT",
    "AG[AG]GT",
    "AGG[CG]T",
    "GG[AT]A",
    "GT[CT]A",
    "GG..CA"]
total = 0
for pat in variants:
    total += len(re.findall(pat, seq))
cleaned = re.sub("TTT+", "T", seq)
print(total, len(cleaned))
