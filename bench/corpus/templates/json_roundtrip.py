SALT = 0
# JSON round-trip handler: build a response document, serialise it, parse
# it back and read fields out of the parsed form.
def build(i):
    return {"id": SALT + i,
            "name": "user-%d" % (SALT + i),
            "tags": ["a", "b", "t%d" % (i % 3)],
            "active": i % 2 == 0,
            "score": i * 3}

recs = []
for i in xrange(6):
    recs.append(build(i))
s = json.dumps({"users": recs, "count": len(recs)})
back = json.loads(s)
total = 0
names = []
for u in back["users"]:
    if u["active"]:
        total += u["id"] + u["score"]
        names.append(u["name"])
print(back["count"], len(s) > 100)
print(total, ",".join(names))
