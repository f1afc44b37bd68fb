package yamlite

import (
	"testing"
)

func helperDoc(t *testing.T) Map {
	t.Helper()
	v := mustParse(t, `
name: ot2
port: 2005
rate: 1.5
ready: true
tags: [liquid, handler]
vols: [1, 2.5, 3]
config:
  deck: left
`)
	m, err := AsMap(v)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestStrHelpers(t *testing.T) {
	m := helperDoc(t)
	if s, err := Str(m, "name"); err != nil || s != "ot2" {
		t.Fatalf("Str = %q, %v", s, err)
	}
	if _, err := Str(m, "missing"); err == nil {
		t.Fatal("missing key accepted")
	}
	if _, err := Str(m, "port"); err == nil {
		t.Fatal("mistyped key accepted")
	}
	if s, err := StrOr(m, "missing", "dflt"); err != nil || s != "dflt" {
		t.Fatalf("StrOr = %q, %v", s, err)
	}
	if _, err := StrOr(m, "port", "dflt"); err == nil {
		t.Fatal("StrOr mistyped accepted")
	}
}

func TestIntFloatBoolHelpers(t *testing.T) {
	m := helperDoc(t)
	if n, err := Int(m, "port"); err != nil || n != 2005 {
		t.Fatalf("Int = %d, %v", n, err)
	}
	if _, err := Int(m, "rate"); err == nil {
		t.Fatal("float as int accepted")
	}
	if b, err := Bool(m, "ready"); err != nil || !b {
		t.Fatalf("Bool = %v, %v", b, err)
	}
	if _, err := Bool(m, "name"); err == nil {
		t.Fatal("string as bool accepted")
	}
}

func TestCollectionHelpers(t *testing.T) {
	m := helperDoc(t)
	l, err := SubList(m, "tags")
	if err != nil || len(l) != 2 {
		t.Fatalf("SubList = %#v, %v", l, err)
	}
	ss, err := StringList(m, "tags")
	if err != nil || ss[0] != "liquid" || ss[1] != "handler" {
		t.Fatalf("StringList = %#v, %v", ss, err)
	}
	if _, err := StringList(m, "vols"); err == nil {
		t.Fatal("numeric list as strings accepted")
	}
	if _, err := AsMap(m["tags"]); err == nil {
		t.Fatal("list as map accepted")
	}
	if _, err := AsList("scalar"); err == nil {
		t.Fatal("scalar as list accepted")
	}
}
