SALT = 0
# Record-parse handler: split CSV order lines into records and aggregate
# revenue per region.
def parse_line(line):
    f = line.split(",")
    return {"id": int(f[0]), "region": f[1], "qty": int(f[2]), "price": int(f[3])}

regions = ["north", "south", "east", "west"]
lines = []
for i in xrange(12):
    lines.append("%d,%s,%d,%d" % (SALT + i, regions[i % 4], 1 + i % 5, 100 + 7 * i))
totals = {}
idsum = 0
for line in lines:
    rec = parse_line(line)
    idsum += rec["id"]
    r = rec["region"]
    totals[r] = totals.get(r, 0) + rec["qty"] * rec["price"]
out = []
for r in sorted(totals.keys()):
    out.append("%s=%d" % (r, totals[r]))
print(";".join(out))
print(idsum)
