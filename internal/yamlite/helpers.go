package yamlite

import "fmt"

// The helpers below give config loaders (workcell, workflow, dye library)
// a terse, error-reporting way to pull typed fields out of decoded documents.

// AsMap asserts that v is a mapping.
func AsMap(v any) (Map, error) {
	m, ok := v.(Map)
	if !ok {
		return nil, fmt.Errorf("yamlite: expected mapping, got %T", v)
	}
	return m, nil
}

// AsList asserts that v is a sequence.
func AsList(v any) (List, error) {
	l, ok := v.(List)
	if !ok {
		return nil, fmt.Errorf("yamlite: expected sequence, got %T", v)
	}
	return l, nil
}

// Str returns the string value at key, or an error if missing or mistyped.
func Str(m Map, key string) (string, error) {
	v, ok := m[key]
	if !ok {
		return "", fmt.Errorf("yamlite: missing key %q", key)
	}
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("yamlite: key %q: expected string, got %T", key, v)
	}
	return s, nil
}

// StrOr returns the string value at key, or def if the key is absent.
func StrOr(m Map, key, def string) (string, error) {
	if _, ok := m[key]; !ok {
		return def, nil
	}
	return Str(m, key)
}

// Int returns the integer value at key.
func Int(m Map, key string) (int64, error) {
	v, ok := m[key]
	if !ok {
		return 0, fmt.Errorf("yamlite: missing key %q", key)
	}
	switch n := v.(type) {
	case int64:
		return n, nil
	case int:
		return int64(n), nil
	}
	return 0, fmt.Errorf("yamlite: key %q: expected integer, got %T", key, v)
}

// Bool returns the boolean value at key.
func Bool(m Map, key string) (bool, error) {
	v, ok := m[key]
	if !ok {
		return false, fmt.Errorf("yamlite: missing key %q", key)
	}
	b, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("yamlite: key %q: expected bool, got %T", key, v)
	}
	return b, nil
}

// SubList returns the sequence value at key.
func SubList(m Map, key string) (List, error) {
	v, ok := m[key]
	if !ok {
		return nil, fmt.Errorf("yamlite: missing key %q", key)
	}
	sub, err := AsList(v)
	if err != nil {
		return nil, fmt.Errorf("yamlite: key %q: %v", key, err)
	}
	return sub, nil
}

// StringList returns the sequence at key coerced to strings.
func StringList(m Map, key string) ([]string, error) {
	l, err := SubList(m, key)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(l))
	for i, v := range l {
		s, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("yamlite: key %q[%d]: expected string, got %T", key, i, v)
		}
		out[i] = s
	}
	return out, nil
}
