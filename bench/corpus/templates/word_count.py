SALT = 0
# Text handler: normalise a message body, tokenise it and report the most
# frequent words.
text = "  The quick brown fox, id %d, jumps over the lazy dog; the dog (id %d) sleeps while the fox runs.  " % (SALT, SALT + 1)
clean = text.strip().lower()
for ch in [",", ";", "(", ")", "."]:
    clean = clean.replace(ch, " ")
words = clean.split()
counts = {}
nums = 0
for w in words:
    if w.isdigit():
        nums += int(w)
    else:
        counts[w] = counts.get(w, 0) + 1
ranked = []
for w in counts.keys():
    ranked.append((0 - counts[w], w))
ranked.sort()
top = []
for r in ranked[:3]:
    top.append("%s=%d" % (r[1], 0 - r[0]))
print(" ".join(top))
print(len(words), len(counts), nums)
