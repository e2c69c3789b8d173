SALT = 4099
# Listing handler: order rows by a computed key, cut one page out and
# render it.
rows = []
for i in xrange(24):
    rows.append(((i * 37 + SALT) % 101, "row-%d" % i))
rows.sort()
page = SALT % 4
chunk = rows[page * 6:(page + 1) * 6]
out = []
for r in chunk:
    out.append("%d:%s" % (r[0], r[1]))
print("page %d/4" % (page + 1))
print(" ".join(out))
