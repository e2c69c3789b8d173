
data = {}
for i in xrange(300):
    data["key-%d" % i] = [i, i * 2, "v%d" % i]
total = 0
for rep in xrange(40):
    s = pickle.dumps(data)
    total += len(s)
print(total % 1000003)
