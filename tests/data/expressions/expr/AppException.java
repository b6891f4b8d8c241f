package expr;

/** The project's own checked exception. */
public class AppException extends Exception {

    private static final long serialVersionUID = 1L;

    public AppException(Object detail) {
    }
}
