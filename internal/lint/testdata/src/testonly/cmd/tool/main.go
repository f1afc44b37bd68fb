// Command tool is the sibling package of the testonly fixture: every
// internal/store name it uses is in use.
package main

import "testonly/internal/store"

func main() {
	s := store.Open()
	s.Items = append(s.Items, 1)
	store.OnlyCmd()
}
