
# JetStream-style JSON parse/serialize round trips on financial-ish data.
def build_quotes(n):
    out = []
    for i in xrange(n):
        out.append({"symbol": "TCK%02d" % (i % 40),
                    "bid": 100.0 + i * 0.25,
                    "ask": 100.5 + i * 0.25,
                    "volume": i * 100 % 99999,
                    "flags": [i % 2 == 0, i % 3 == 0]})
    return out

quotes = build_quotes(80)
total = 0
for rep in xrange(15):
    blob = json.dumps(quotes)
    back = json.loads(blob)
    total += len(blob) + len(back)
print(total)
