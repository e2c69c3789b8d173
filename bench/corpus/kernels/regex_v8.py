
# Patterns over synthetic web-ish text, in the spirit of the regex-v8
# workload distilled from browser sessions.
def build_text(n):
    parts = []
    for i in xrange(n):
        parts.append("GET /page/%d?user=u%d&session=s%d HTTP/1.1 host%d.example.com " % (i, i * 7 % 50, i * 13 % 97, i % 5))
        parts.append("<div class='c%d' id='e%d'>value %d,%d</div> " % (i % 9, i, i * 3, i * 5))
    return "".join(parts)

text = build_text(60)
total = 0
total += len(re.findall("GET /page/[0-9]+", text))
total += len(re.findall("user=u[0-9]+", text))
total += len(re.findall("<div class='c[0-9]'", text))
total += len(re.findall("[0-9]+,[0-9]+", text))
total += len(re.findall("host[0-9]\\.example\\.com", text))
subbed = re.sub("session=s[0-9]+", "session=X", text)
total += len(re.findall("session=X", subbed))
print(total, len(text))
