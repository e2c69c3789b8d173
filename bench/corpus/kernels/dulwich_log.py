
# dulwich_log: walk a synthetic commit graph in topological order and
# format each entry, as git-log over a repository of dict objects.
def build_history(n):
    commits = {}
    for i in xrange(n):
        parents = []
        if i > 0:
            parents.append("c%04d" % (i - 1))
        if i % 7 == 3 and i > 4:
            parents.append("c%04d" % (i - 4))
        commits["c%04d" % i] = {
            "parents": parents,
            "author": "dev%d" % (i % 6),
            "time": 1500000000 + i * 137,
            "message": "commit %d: tweak module %d\n\nlonger body text %d" % (i, i % 12, i)}
    return commits

def walk(commits, head):
    seen = {}
    order = []
    stack = [head]
    while len(stack) > 0:
        sha = stack.pop()
        if sha in seen:
            continue
        seen[sha] = True
        order.append(sha)
        c = commits[sha]
        for p in c["parents"]:
            stack.append(p)
    return order

def format_entry(sha, c):
    lines = []
    lines.append("commit %s" % sha)
    lines.append("Author: %s" % c["author"])
    lines.append("Date: %d" % c["time"])
    msg = c["message"].split("\n")
    for line in msg:
        lines.append("    " + line)
    return "\n".join(lines)

commits = build_history(220)
order = walk(commits, "c0219")
total = 0
for sha in order:
    total += len(format_entry(sha, commits[sha]))
print(len(order), total)
