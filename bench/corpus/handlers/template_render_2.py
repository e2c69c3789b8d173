SALT = 257
# Template-render handler: format an order page as an HTML fragment list
# and join it, the way the template-engine kernels do at larger sizes.
def render_item(i, name, cents):
    cls = "even"
    if i % 2:
        cls = "odd"
    return "<li id='i%d' class='%s'>%s: $%d.%02d</li>" % (i, cls, name, cents // 100, cents % 100)

def render(title, items):
    out = ["<h1>%s</h1>" % title, "<ul>"]
    i = 0
    for it in items:
        out.append(render_item(i, it[0], it[1]))
        i += 1
    out.append("</ul>")
    return "\n".join(out)

items = []
for i in xrange(10):
    items.append(("item-%d" % (SALT + i), 995 + 150 * i))
html = render("Order %d" % SALT, items)
print(len(html))
print(html.count("odd"), html.find("item-%d" % (SALT + 9)) > 0)
