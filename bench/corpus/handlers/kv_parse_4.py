SALT = 65551
# Query-string handler: parse "k=v&k=v" requests into dicts, validate the
# paging fields and render one summary line per request.
def parse_query(q):
    out = {}
    for pair in q.split("&"):
        kv = pair.split("=")
        out[kv[0]] = kv[1]
    return out

def handle(q):
    params = parse_query(q)
    page = int(params["page"])
    size = int(params["size"])
    start = (page - 1) * size
    keys = sorted(params.keys())
    return "%s:%d-%d:%s" % (params["user"].upper(), start, start + size, ",".join(keys))

reqs = []
for i in xrange(8):
    reqs.append("user=u%d&page=%d&size=%d&sort=asc&token=t%d" % (SALT + i, i + 1, 10 + i, SALT % 97))
total = 0
last = ""
for q in reqs:
    last = handle(q)
    total += len(last)
print(last)
print(total)
