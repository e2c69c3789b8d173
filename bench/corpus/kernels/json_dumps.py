
def build_record(i):
    return {"id": i,
            "name": "user-%d" % i,
            "score": i * 0.75,
            "tags": ["alpha", "beta", "g%d" % (i % 10)],
            "active": i % 3 == 0,
            "address": {"street": "%d Main St" % (i * 7 % 100),
                        "zip": "%05d" % (i * 13 % 99999)}}

def build_records(n):
    out = []
    for i in xrange(n):
        out.append(build_record(i))
    return out

records = build_records(50)
total = 0
for rep in xrange(40):
    s = json.dumps(records)
    total += len(s)
print(total % 1000003, len(s))
