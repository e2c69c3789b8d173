SALT = 4099
# Router handler: match request paths against a compiled route table and
# dispatch on the first hit.
routes = [("^/users/[0-9]+$", "user"),
          ("^/orders/[0-9]+/items$", "items"),
          ("^/static/.*$", "static")]
compiled = []
for r in routes:
    compiled.append((re.compile(r[0]), r[1]))

def dispatch(path):
    for c in compiled:
        if re.match(c[0], path):
            parts = path.split("/")
            return c[1] + ":" + parts[2]
    return "404:" + path

paths = ["/users/%d" % SALT,
         "/orders/%d/items" % (SALT + 1),
         "/static/app.js",
         "/users/x%d" % SALT,
         "/orders/%d" % SALT,
         "/users/%d" % (SALT + 2)]
out = []
hits = 0
for p in paths:
    r = dispatch(p)
    if not r.startswith("404"):
        hits += 1
    out.append(r)
print(" ".join(out))
print(hits)
