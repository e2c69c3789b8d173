
def poly_add(a, b):
    out = {}
    for e in a.keys():
        out[e] = a[e]
    for e in b.keys():
        if e in out:
            out[e] = out[e] + b[e]
            if out[e] == 0:
                del out[e]
        else:
            out[e] = b[e]
    return out

def poly_mul(a, b):
    out = {}
    for ea in a.keys():
        for eb in b.keys():
            e = ea + eb
            c = a[ea] * b[eb]
            if e in out:
                out[e] = out[e] + c
                if out[e] == 0:
                    del out[e]
            else:
                out[e] = c
    return out

def poly_scale(a, k):
    out = {}
    for e in a.keys():
        out[e] = a[e] * k
    return out

def poly_eval(a, x):
    total = 0
    for e in a.keys():
        term = a[e]
        p = 0
        while p < e:
            term = term * x
            p += 1
        total += term
    return total

def poly_str(a):
    parts = []
    for e in sorted(a.keys()):
        c = a[e]
        if e == 0:
            parts.append(str(c))
        elif e == 1:
            parts.append("%d*x" % c)
        else:
            parts.append("%d*x**%d" % (c, e))
    return " + ".join(parts)

# stringify symbolic expressions
total = 0
p = {0: 1}
for k in xrange(1, 10):
    p = poly_mul(p, {0: -k, 1: 1})
    s = poly_str(p)
    total += len(s)
for rep in xrange(120):
    total += len(poly_str(p))
print(total)
